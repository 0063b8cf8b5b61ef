"""Dense convex QP solver for least-distance projection problems.

Solves min ||w + g||^2 subject to G w <= h with a dual active-set method
(Goldfarb-Idnani specialized to an identity Hessian). The iteration starts
from the unconstrained minimizer and adds violated constraints one at a
time, taking partial dual steps when an active multiplier blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridDataError, OfoStepError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITER = "max_iter"

_FEAS_TOL = 1e-10  # feasibility tolerance relative to the row's magnitude
_DEP_TOL = 1e-12  # linear-independence tolerance for active normals


@dataclass(frozen=True)
class QpProblem:
    """min ||w + g||^2  s.t.  G_ineq w <= h_ineq (Hessian fixed to identity)."""

    g: np.ndarray
    G_ineq: np.ndarray
    h_ineq: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.g, dtype=float))
        G = np.asarray(self.G_ineq, dtype=float)
        h = np.atleast_1d(np.asarray(self.h_ineq, dtype=float))
        if G.size == 0:
            G = G.reshape(0, g.size)
        if G.shape != (h.size, g.size):
            raise GridDataError("G_ineq must be len(h_ineq) rows by len(g) columns")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(G)) and np.all(np.isfinite(h))):
            raise OfoStepError("QP data must be finite")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "G_ineq", G)
        object.__setattr__(self, "h_ineq", h)

    @property
    def n(self) -> int:
        return self.g.size


@dataclass(frozen=True)
class QpSolution:
    w: np.ndarray
    lam: np.ndarray
    active_set: tuple[int, ...]
    status: str
    iterations: int = 0


def kkt_residuals(p: QpProblem, sol: QpSolution) -> dict[str, float]:
    """Stationarity, primal/dual feasibility and complementarity residuals."""
    w, lam = sol.w, sol.lam
    stat = 2.0 * (w + p.g) + p.G_ineq.T @ lam if p.h_ineq.size else 2.0 * (w + p.g)
    slack = p.G_ineq @ w - p.h_ineq
    return {
        "stationarity": float(np.max(np.abs(stat))) if stat.size else 0.0,
        "primal": float(max(0.0, np.max(slack, initial=-np.inf))) if slack.size else 0.0,
        "dual": float(max(0.0, -np.min(lam, initial=np.inf))) if lam.size else 0.0,
        "complementarity": float(np.max(np.abs(lam * slack))) if slack.size else 0.0,
    }


def _dual_direction(N: np.ndarray, n_p: np.ndarray):
    """Projection of n_p off the span of active normals N (columns)."""
    if N.shape[1] == 0:
        return n_p.copy(), np.zeros(0)
    r, *_ = np.linalg.lstsq(N, n_p, rcond=None)
    z = n_p - N @ r
    return z, r


def qp_solve(p: QpProblem) -> QpSolution:
    """Global minimizer of the least-distance problem, KKT-certified.

    Ties (equally violated constraints, equally blocking multipliers) break
    deterministically toward the lowest constraint index.
    """
    n = p.n
    m = p.h_ineq.size
    max_iter = 10 * (n + m)

    G, h = p.G_ineq, p.h_ineq
    # a row counts as violated only beyond the rounding error of G_i w,
    # which grows with |G_i| |w| when ill-conditioned rows drive w large
    tol_h = _FEAS_TOL * (1.0 + np.abs(h))
    tol_w = _FEAS_TOL * np.sqrt(np.einsum("ij,ij->i", G, G))
    w = -p.g.copy()
    lam_full = np.zeros(m)
    active: list[int] = []

    iters = 0
    while iters < max_iter:
        iters += 1
        tol = tol_h + tol_w * np.abs(w).max(initial=0.0)
        slack = G @ w - h - tol if m else np.zeros(0)
        if m == 0 or np.max(slack) <= 0.0:
            # internal multipliers follow the (1/2)||w+g||^2 convention; the
            # reported ones certify the documented ||w+g||^2 objective
            return QpSolution(
                w=w, lam=2.0 * lam_full,
                active_set=tuple(i for i in sorted(active) if lam_full[i] > _FEAS_TOL),
                status=OPTIMAL, iterations=iters,
            )
        pick = int(np.argmax(slack))  # argmax returns the first maximizer

        # inner loop: drive constraint `pick` to feasibility
        while iters < max_iter:
            n_p = G[pick]
            N = G[active].T if active else np.zeros((n, 0))
            z, r = _dual_direction(N, n_p)
            s_p = float(n_p @ w - h[pick])
            if s_p <= tol[pick]:
                # a partial step that ties with the full one leaves `pick`
                # tight with a positive multiplier: it must join the active
                # set, or that multiplier is never updated again
                if lam_full[pick] > 0.0:
                    active.append(pick)
                break

            zz = float(z @ z)
            # dependence test relative to the normal itself, so small but
            # valid constraint rows are not mistaken for degenerate ones
            scale = float(n_p @ n_p)
            t_full = s_p / zz if zz > _DEP_TOL * scale else np.inf

            # dual blocking step: active multipliers must stay nonnegative
            t_block = np.inf
            block_pos = -1
            for j, idx in enumerate(active):
                if r[j] > _DEP_TOL:
                    tj = lam_full[idx] / r[j]
                    if tj < t_block - 1e-15:
                        t_block, block_pos = tj, j

            if not np.isfinite(t_full) and not np.isfinite(t_block):
                return QpSolution(
                    w=w, lam=2.0 * lam_full, active_set=tuple(sorted(active)),
                    status=INFEASIBLE, iterations=iters,
                )

            t = min(t_full, t_block)
            if np.isfinite(t_full):
                w -= t * z
            # a dependent normal (z taken as zero) moves only the multipliers:
            # stepping w along its rounding residue would scale that residue
            # by the possibly huge dual step
            for j, idx in enumerate(active):
                lam_full[idx] -= t * r[j]
            lam_full[pick] += t

            if t_full <= t_block:
                active.append(pick)
                break
            # drop the blocking constraint and continue working on `pick`
            dropped = active.pop(block_pos)
            lam_full[dropped] = 0.0
            iters += 1

    return QpSolution(
        w=w, lam=2.0 * lam_full, active_set=tuple(sorted(active)),
        status=MAX_ITER, iterations=iters,
    )

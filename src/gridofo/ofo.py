"""Online feedback optimization controller: projected-gradient set-point updates.

Each sampling instant the controller takes the measured output y_m, the
current sensitivity matrix S = d(y)/d(u), and moves the set-points by
u <- u + alpha * w, where w solves a least-distance QP: minimize
||w + S^T grad_Phi(y_m)||^2 subject to the linearized input and output
constraints. Input bounds are hard; output bounds are softened with
slack variables when the emergency state makes them jointly infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import GridDataError, OfoStepError
from .network import Measurement, NetworkModel, _read_only
from .qp import OPTIMAL, QpProblem, qp_solve
from .sensitivity import SensitivityMatrix


@dataclass(frozen=True)
class OfoConfig:
    alpha: float
    sampling_period: float
    p_min: np.ndarray
    p_max: np.ndarray
    v_min: np.ndarray
    v_max: np.ndarray
    out_v_min: np.ndarray
    out_v_max: np.ndarray
    flow_max: np.ndarray
    rho: float = 1e3

    def __post_init__(self):
        for name in ("p_min", "p_max", "v_min", "v_max",
                     "out_v_min", "out_v_max", "flow_max"):
            bound = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(bound)):
                raise GridDataError(f"ofo: {name} must be finite")
            object.__setattr__(self, name, bound)
        for name in ("alpha", "sampling_period", "rho"):
            if not 0 < getattr(self, name) < np.inf:
                raise GridDataError(f"ofo: {name} must be finite and > 0")
        if np.any(self.p_min > self.p_max) or np.any(self.v_min > self.v_max):
            raise GridDataError("ofo: input bounds must be ordered")
        if np.any(self.out_v_min > self.out_v_max):
            raise GridDataError("ofo: output voltage bounds must be ordered")

    # the input bounds and their QP rows, built once per configuration

    @cached_property
    def u_min(self) -> np.ndarray:
        return _read_only(np.concatenate([self.p_min, self.v_min]))

    @cached_property
    def u_max(self) -> np.ndarray:
        return _read_only(np.concatenate([self.p_max, self.v_max]))

    @cached_property
    def input_rows(self) -> np.ndarray:
        """alpha [I; -I], the input-bound rows alpha*w <= u_max - u and
        -alpha*w <= u - u_min of every projection QP."""
        eye = np.eye(self.u_min.size)
        return _read_only(self.alpha * np.vstack([eye, -eye]))


def default_config(net: NetworkModel, **overrides) -> OfoConfig:
    """Contingency-study defaults: alpha 3, 5 s sampling, p in [0,1], v in [0.9,1.1]."""
    n_gen = net.n_gen
    base = dict(
        alpha=3.0,
        sampling_period=5.0,
        p_min=np.zeros(n_gen),
        p_max=np.ones(n_gen),
        v_min=np.full(n_gen, 0.9),
        v_max=np.full(n_gen, 1.1),
        out_v_min=np.array([b.v_min for b in net.buses]),
        out_v_max=np.array([b.v_max for b in net.buses]),
        flow_max=np.array([ln.flow_max for ln in net.lines]),
        rho=1e3,
    )
    for key, val in overrides.items():
        if key not in base:
            raise GridDataError(f"ofo: unknown config field {key!r}")
        shape = np.shape(base[key])
        # a JSON true or false is no number, though numpy reads it as one
        flat = val if isinstance(val, (list, tuple)) else (val,)
        try:
            val = None if any(isinstance(x, bool) for x in flat) else np.asarray(val, dtype=float)
        except (TypeError, ValueError):
            val = None
        if val is None or val.shape not in ((), shape):
            want = f"a number or {np.size(base[key])} numbers" if shape else "a number"
            raise GridDataError(f"ofo: {key} needs {want}")
        base[key] = np.full(shape, val) if shape else float(val)
    return OfoConfig(**base)


@dataclass(frozen=True)
class OfoState:
    u: np.ndarray
    active: bool = False

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))

    @property
    def p_ofo(self) -> np.ndarray:
        return self.u[: self.u.size // 2]

    @property
    def v_ofo(self) -> np.ndarray:
        return self.u[self.u.size // 2:]


def objective_gradient(m: Measurement) -> np.ndarray:
    """Gradient of (v_a - v_b)^2 + (theta_a - theta_b)^2 over measurement entries."""
    a, b = m.monitored_idx
    grad = np.zeros(m.v.size + m.flows.size + 1)
    dv = m.v[a] - m.v[b]
    grad[a] = 2.0 * dv
    grad[b] = -2.0 * dv
    grad[-1] = 2.0 * m.delta_theta
    return grad


def _output_rows(cfg: OfoConfig, y: np.ndarray, S: np.ndarray):
    """Linearized output constraints alpha*C*S*w <= d - C*y_m."""
    n_bus = cfg.out_v_min.size
    n_line = cfg.flow_max.size
    S_v = S[:n_bus]
    S_l = S[n_bus:n_bus + n_line]
    y_v = y[:n_bus]
    y_l = y[n_bus:n_bus + n_line]
    G = cfg.alpha * np.vstack([S_v, -S_v, S_l])
    h = np.concatenate([cfg.out_v_max - y_v, y_v - cfg.out_v_min, cfg.flow_max - y_l])
    return G, h


def assemble_projection_qp(cfg: OfoConfig, u: np.ndarray, y_m: Measurement,
                           S: SensitivityMatrix) -> QpProblem:
    """Least-distance projection QP at input u for measurement y_m and sensitivity S."""
    y, mat = y_m.as_vector(), S.matrix
    if u.shape != cfg.u_min.shape or mat.shape != (y.size, u.size):
        raise GridDataError("ofo: sensitivity dimensions inconsistent with u and y")

    g = mat.T @ objective_gradient(y_m)

    h_in = np.concatenate([cfg.u_max - u, u - cfg.u_min])
    G_out, h_out = _output_rows(cfg, y, mat)
    return QpProblem(g=g, G_ineq=np.vstack([cfg.input_rows, G_out]),
                     h_ineq=np.concatenate([h_in, h_out]))


def _soften_outputs(cfg: OfoConfig, problem: QpProblem, n_u: int) -> QpProblem:
    """Append slacks on output rows; penalty rho stays inside an identity Hessian.

    Scaled slacks s' = sqrt(rho) * s keep the objective a plain squared norm:
    ||w + g||^2 + rho*||s||^2 = ||[w; s'] + [g; 0]||^2.
    """
    m_in = 2 * n_u
    m_out = problem.h_ineq.size - m_in
    root = np.sqrt(cfg.rho)
    G = np.block([
        [problem.G_ineq[:m_in], np.zeros((m_in, m_out))],
        [problem.G_ineq[m_in:], -np.eye(m_out) / root],
        [np.zeros((m_out, n_u)), -np.eye(m_out)],
    ])
    h = np.concatenate([problem.h_ineq, np.zeros(m_out)])
    g = np.concatenate([problem.g, np.zeros(m_out)])
    return QpProblem(g=g, G_ineq=G, h_ineq=h)


def ofo_update(cfg: OfoConfig, st: OfoState, y_m: Measurement, S: SensitivityMatrix) -> OfoState:
    """One projected-gradient iteration u <- u + alpha * w."""
    problem = assemble_projection_qp(cfg, st.u, y_m, S)
    sol = qp_solve(problem)
    if sol.status != OPTIMAL:
        softened = _soften_outputs(cfg, problem, st.u.size)
        sol = qp_solve(softened)
        if sol.status != OPTIMAL:
            raise OfoStepError(f"softened projection QP ended {sol.status}")
    w = sol.w[: st.u.size]
    u_new = np.clip(st.u + cfg.alpha * w, cfg.u_min, cfg.u_max)
    return replace(st, u=u_new)

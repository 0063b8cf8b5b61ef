"""Shared fixtures: the bundled 39-bus case and a tiny two-bus system."""

import numpy as np
import pytest

from gridofo.dataio import bundled_path, load_grid
from gridofo.network import (
    Bus,
    GenLocation,
    Line,
    NetworkModel,
    solve_power_flow,
)


@pytest.fixture(scope="session")
def grid():
    return load_grid(bundled_path("ieee39.json"))


@pytest.fixture(scope="session")
def base_solution(grid):
    net = grid.net
    return solve_power_flow(net, [g.p_set for g in net.generators],
                            [g.v_set for g in net.generators])


def two_bus_net(r=0.0, x=0.1, load_p=1.0, load_q=0.2):
    """Slack generator at bus 1 feeding a PQ load at bus 2 over one line."""
    return NetworkModel(
        buses=(
            Bus(id=1, kind="slack"),
            Bus(id=2, kind="PQ", load_p=load_p, load_q=load_q),
        ),
        lines=(Line(id="1-2", from_bus=1, to_bus=2, r=r, x=x),),
        generators=(GenLocation(bus=1, machine="G1", p_set=0.0, v_set=1.0),),
        base_power=100.0,
        monitored_pair=(1, 2),
    )


def three_bus_net(isolate_bus_3=False):
    """Slack at bus 1 feeding PQ loads at buses 2 and 3 down a chain.

    With `isolate_bus_3`, line 2-3 is out of service, so bus 3 has no line and
    no shunt: its P and Q rows of the Newton Jacobian are exactly zero.
    """
    return NetworkModel(
        buses=(
            Bus(id=1, kind="slack"),
            Bus(id=2, kind="PQ", load_p=0.5, load_q=0.1),
            Bus(id=3, kind="PQ", load_p=0.2, load_q=0.05),
        ),
        lines=(Line(id="1-2", from_bus=1, to_bus=2, r=0.01, x=0.1),
               Line(id="2-3", from_bus=2, to_bus=3, r=0.01, x=0.1,
                    in_service=not isolate_bus_3)),
        generators=(GenLocation(bus=1, machine="G1", p_set=0.0, v_set=1.0),),
        base_power=100.0,
        monitored_pair=(1, 3),
    )


def dense_pf_jacobian(Y, V, ang_idx, mag_idx):
    """MATPOWER's dense injection partials (Zimmerman et al., IEEE TPWRS
    2011), broadcast over the full bus-by-bus arrays: the reference for the
    Newton plan's sparse-pattern Jacobian.

    Returns J, the partials of [P[ang_idx]; Q[mag_idx]] in
    [theta[ang_idx]; |V|[mag_idx]], and dF_dVm, the partials of the same rows
    in every bus voltage magnitude.
    """
    I = Y @ V
    v_unit = V / np.abs(V)
    dS_dVa = 1j * V[:, None] * np.conj(np.diag(I) - Y * V)
    dS_dVm = V[:, None] * np.conj(Y * v_unit) + np.diag(np.conj(I) * v_unit)
    dF_dVa, dF_dVm = (np.vstack([d[ang_idx].real, d[mag_idx].imag])
                      for d in (dS_dVa, dS_dVm))
    return np.hstack([dF_dVa[:, ang_idx], dF_dVm[:, mag_idx]]), dF_dVm


def two_bus_analytic_v2(x, load_p, load_q, v1=1.0):
    """Receiving-end complex voltage of a lossless two-bus feeder.

    With V1 = v1 at angle 0, reactance x, and constant power P + jQ drawn at
    bus 2, the magnitude solves the biquadratic
        v2^4 + (2 Q x - v1^2) v2^2 + x^2 (P^2 + Q^2) = 0
    (high-voltage root) and the angle follows from P = v1 v2 sin(-th2)/x.
    """
    b_half = (v1 * v1 - 2.0 * load_q * x) / 2.0
    disc = b_half * b_half - x * x * (load_p ** 2 + load_q ** 2)
    if disc < 0:
        raise ValueError("no power flow solution exists for this loading")
    v2 = np.sqrt(b_half + np.sqrt(disc))
    th2 = -np.arcsin(load_p * x / (v1 * v2))
    return v2 * np.exp(1j * th2)


def random_qp(rng, n_max=4, m_max=6):
    """Random least-distance QP with bounded data, occasionally infeasible."""
    from gridofo.qp import QpProblem

    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    g = rng.normal(size=n)
    G = rng.normal(size=(m, n))
    h = rng.normal(size=m)
    return QpProblem(g=g, G_ineq=G, h_ineq=h)


def brute_force_qp(problem, tol=1e-9):
    """Exhaustive active-set enumeration for small least-distance QPs.

    Tries every subset of constraints as equalities, solves the equality
    constrained problem, keeps KKT-consistent candidates, returns the best.
    Returns None when no feasible candidate exists.
    """
    from itertools import combinations

    g, G, h = problem.g, problem.G_ineq, problem.h_ineq
    n, m = problem.n, h.size
    best = None
    for k in range(0, min(m, n) + 1):
        for subset in combinations(range(m), k):
            A = G[list(subset)]
            b = h[list(subset)]
            # KKT: 2(w + g) + A^T lam = 0, A w = b
            KKT = np.block([[2.0 * np.eye(n), A.T],
                            [A, np.zeros((k, k))]])
            rhs = np.concatenate([-2.0 * g, b])
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                continue
            w, lam = sol[:n], sol[n:]
            if np.any(lam < -tol):
                continue
            if m and np.max(G @ w - h) > tol:
                continue
            obj = float(np.dot(w + g, w + g))
            if best is None or obj < best[1] - 1e-14:
                best = (w, obj)
    return None if best is None else best[0]

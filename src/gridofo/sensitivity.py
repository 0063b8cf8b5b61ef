"""Steady-state input-to-output sensitivities from the power flow equations.

The controller input is u = [p set-points per generator; v set-points per
generator]; the output is the measurement vector [bus voltage magnitudes,
line apparent-power flows, monitored angle difference]. Sensitivities come
from implicit differentiation of the Newton-Raphson mismatch equations:
perturbations of PV-bus P and V propagate through the power-flow Jacobian
into all angles and magnitudes, then chain-rule into flows and the angle
gap. The Jacobian and the mismatch partials in the inputs come from
`network.pf_jacobian` on the topology's `NewtonPlan`, the same ones the
Newton iteration uses. A line's flow depends on the state at its two end
buses only, so the flow rows gather those two buses' rows of the state
partials.

Slack treatment: P perturbations at the slack generator have no steady-state
effect (the slack absorbs them), so that column is zero; the controller's
feedback loop corrects the resulting mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridDataError, VoltageCollapseProximityError
from .network import NetworkModel, PowerFlowSolution, _positive_magnitudes, pf_jacobian


@dataclass(frozen=True)
class SensitivityMatrix:
    """d(measurement)/d(set-points), rows [v; flows; delta_theta], cols [p; v]."""

    matrix: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.matrix)):
            raise VoltageCollapseProximityError("non-finite sensitivity entries")


def _flow_partials(net: NetworkModel, V: np.ndarray) -> np.ndarray:
    """d|S_from| of every line in the angle and magnitude of its two ends.

    Returns shape (4, n_line): the partials in theta_f, theta_t, |V|_f and
    |V|_t, the order of `NewtonPlan.line_ends`. They are zero for
    out-of-service or unloaded lines (the magnitude is non-differentiable at 0).

    S_from = A - B with A = |V_f|^2 conj(ys + ysh) and B = V_f conj(ys V_t);
    B turns with theta_f - theta_t and scales with |V_f| and |V_t|, A scales
    with |V_f|^2, and d|S|/dz = Re(c dS/dz) with c = conj(S) / |S|.
    """
    f, t, ys, ysh = net.branches
    v_f, v_t = V[f], V[t]
    m_f = np.abs(v_f)
    A = m_f * m_f * np.conj(ys + ysh)
    B = v_f * np.conj(ys * v_t)
    S = A - B
    mag = np.abs(S)
    c = np.divide(np.conj(S), mag, out=np.zeros_like(S), where=mag >= 1e-9)
    cB = c * B
    return np.stack([cB.imag, -cB.imag, (2.0 * (c * A).real - cB.real) / m_f,
                     -cB.real / np.abs(v_t)])


def compute_sensitivity(net: NetworkModel, op: PowerFlowSolution) -> SensitivityMatrix:
    """Sensitivity of [v, flows, delta_theta] to [p set-points, v set-points]."""
    plan = net.newton_plan
    n, n_gen = net.n_bus, net.n_gen
    V = op.v_complex
    if V.shape != (n,):
        raise GridDataError("operating point dimension does not match network")
    if not (_positive_magnitudes(op.v) and np.isfinite(op.theta).all()):
        raise VoltageCollapseProximityError(
            "operating point has a voltage magnitude that is not finite and > 0 "
            "or an angle that is not finite")
    J, dF_du = pf_jacobian(plan, V)
    try:
        dz = np.linalg.solve(J, -dF_du)
    except np.linalg.LinAlgError:
        raise VoltageCollapseProximityError(
            "singular power-flow Jacobian at the operating point"
        ) from None

    # partials of every bus's [theta; |V|] per input: the unknowns' from the
    # solve, and a v set-point pins the magnitude at its bus
    dx = np.zeros((2 * n, 2 * n_gen))
    dx[plan.state_rows] = dz
    dx[plan.v_set_rows, n_gen + np.arange(n_gen)] = 1.0

    # each line's flow moves with the state at its two ends only
    dflow = np.einsum("el,elc->lc", _flow_partials(net, V), dx[plan.line_ends])
    a, b = net.monitored_indices
    return SensitivityMatrix(matrix=np.vstack([dx[n:], dflow, dx[a] - dx[b]]))

"""Steady-state input-to-output sensitivities from the power flow equations.

The controller input is u = [p set-points per generator; v set-points per
generator]; the output is the measurement vector [bus voltage magnitudes,
line apparent-power flows, monitored angle difference]. Sensitivities come
from implicit differentiation of the Newton-Raphson mismatch equations:
perturbations of PV-bus P and V propagate through the power-flow Jacobian
(`network.pf_jacobian`, the one the Newton iteration uses) into all angles
and magnitudes, then chain-rule into flows and the angle gap. The flow
partials are vectorized over the network's branch arrays.

Slack treatment: P perturbations at the slack generator have no steady-state
effect (the slack absorbs them), so that column is zero; the controller's
feedback loop corrects the resulting mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import VoltageCollapseProximityError
from .network import (
    NetworkModel,
    PowerFlowSolution,
    _newton_indices,
    build_ybus,
    pf_jacobian,
)


@dataclass(frozen=True)
class SensitivityMatrix:
    """d(measurement)/d(set-points), rows [v; flows; delta_theta], cols [p; v]."""

    matrix: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.matrix)):
            raise VoltageCollapseProximityError("non-finite sensitivity entries")


def _flow_partials(net: NetworkModel, V: np.ndarray):
    """d|S_from|/d(theta_k) and d|S_from|/d(vm_k) for every line, sparse by bus.

    Returns (dl_dva, dl_dvm) of shape (n_line, n_bus); rows of out-of-service
    or unloaded lines are zero (the magnitude is non-differentiable at 0).
    """
    f, t, ys, ysh = net.branches
    v_f, v_t = V[f], V[t]
    i_from = ys * (v_f - v_t) + ysh * v_f
    S = v_f * np.conj(i_from)
    mag = np.abs(S)
    live = mag >= 1e-9  # out-of-service lines have S == 0

    def partial(dv_f, dv_t):
        # d|S|/dz = Re(conj(S) dS/dz) / |S|, dS/dz = dVf conj(i_from) + Vf conj(di_from)
        dS = dv_f * np.conj(i_from) + v_f * np.conj(ys * (dv_f - dv_t) + ysh * dv_f)
        return np.divide((np.conj(S) * dS).real, mag, out=np.zeros(mag.size), where=live)

    zero = np.zeros_like(v_f)
    rows = np.arange(net.n_line)
    dl_dva = np.zeros((net.n_line, net.n_bus))
    dl_dvm = np.zeros((net.n_line, net.n_bus))
    dl_dva[rows, f] = partial(1j * v_f, zero)
    dl_dva[rows, t] = partial(zero, 1j * v_t)
    dl_dvm[rows, f] = partial(v_f / np.abs(v_f), zero)
    dl_dvm[rows, t] = partial(zero, v_t / np.abs(v_t))
    return dl_dva, dl_dvm


def compute_sensitivity(net: NetworkModel, op: PowerFlowSolution) -> SensitivityMatrix:
    """Sensitivity of [v, flows, delta_theta] to [p set-points, v set-points]."""
    n = net.n_bus
    n_gen = net.n_gen
    ang_idx, mag_idx = _newton_indices(net)
    n_ang = len(ang_idx)
    V = op.v_complex
    J, dF_dVm = pf_jacobian(build_ybus(net), V, ang_idx, mag_idx)

    gen_bus = net.gen_bus_indices
    gens = np.arange(n_gen)
    p_gens = gens[gen_bus != net.slack_index]
    ang_pos = np.zeros(n, dtype=int)
    ang_pos[ang_idx] = np.arange(n_ang)

    # right-hand sides, one column per input: d(mismatch)/d(P_spec) = -1 at
    # the P row of a non-slack generator bus; a voltage set-point is a
    # parameter magnitude at its bus (PV or slack)
    rhs = np.zeros((len(J), 2 * n_gen))
    rhs[ang_pos[gen_bus[p_gens]], p_gens] = 1.0
    rhs[:, n_gen:] = -dF_dVm[:, gen_bus]

    try:
        dz = np.linalg.solve(J, rhs)
    except np.linalg.LinAlgError:
        raise VoltageCollapseProximityError(
            "singular power-flow Jacobian at the operating point"
        ) from None

    dva = np.zeros((n, 2 * n_gen))
    dvm = np.zeros((n, 2 * n_gen))
    dvm[gen_bus, n_gen + gens] = 1.0
    dva[ang_idx, :] = dz[:n_ang, :]
    dvm[mag_idx, :] = dz[n_ang:, :]

    dl_dva, dl_dvm = _flow_partials(net, V)
    dflow = dl_dva @ dva + dl_dvm @ dvm

    a, b = net.monitored_indices
    dtheta_row = dva[a, :] - dva[b, :]

    mat = np.vstack([dvm, dflow, dtheta_row])
    return SensitivityMatrix(matrix=mat)

"""Steady-state input-to-output sensitivities from the power flow equations.

The controller input is u = [p set-points per generator; v set-points per
generator]; the output is the measurement vector [bus voltage magnitudes,
line apparent-power flows, monitored angle difference]. Sensitivities come
from implicit differentiation of the Newton-Raphson mismatch equations:
perturbations of PV-bus P and V propagate through the power-flow Jacobian
into all angles and magnitudes, then chain-rule into flows and the angle gap.

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
    _bus_partitions,
    build_ybus,
    dSbus_dV,
    line_admittances,
)


@dataclass(frozen=True)
class SensitivityMatrix:
    """d(measurement)/d(set-points), rows [v; flows; delta_theta], cols [p; v]."""

    matrix: np.ndarray
    operating_point: str
    topology: str

    def __post_init__(self):
        if not np.all(np.isfinite(self.matrix)):
            raise VoltageCollapseProximityError("non-finite sensitivity entries")


def _flow_partials(net: NetworkModel, V: np.ndarray):
    """d|S_from|/d(theta_k) and d|S_from|/d(vm_k) for every line, sparse by bus.

    Returns (dl_dva, dl_dvm) of shape (n_line, n_bus); rows of out-of-service
    or unloaded lines are zero (the magnitude is non-differentiable at 0).
    """
    n = net.n_bus
    dl_dva = np.zeros((net.n_line, n))
    dl_dvm = np.zeros((net.n_line, n))
    vm = np.abs(V)
    for k, ln in enumerate(net.lines):
        if not ln.in_service:
            continue
        ys, ysh = line_admittances(ln)
        f = net.bus_index(ln.from_bus)
        t = net.bus_index(ln.to_bus)
        i_from = ys * (V[f] - V[t]) + ysh * V[f]
        S = V[f] * np.conj(i_from)
        mag = abs(S)
        if mag < 1e-9:
            continue
        # dS/dz = (dVf/dz) conj(i_from) + Vf conj(di_from/dz)
        for bus, dVf, dVt in (
            (f, 1j * V[f], 0.0),
            (t, 0.0, 1j * V[t]),
        ):
            dI = ys * (dVf - dVt) + ysh * dVf
            dS = dVf * np.conj(i_from) + V[f] * np.conj(dI)
            dl_dva[k, bus] = (S.real * dS.real + S.imag * dS.imag) / mag
        for bus, dVf, dVt in (
            (f, V[f] / vm[f], 0.0),
            (t, 0.0, V[t] / vm[t]),
        ):
            dI = ys * (dVf - dVt) + ysh * dVf
            dS = dVf * np.conj(i_from) + V[f] * np.conj(dI)
            dl_dvm[k, bus] = (S.real * dS.real + S.imag * dS.imag) / mag
    return dl_dva, dl_dvm


def compute_sensitivity(
    net: NetworkModel,
    op: PowerFlowSolution,
    operating_point: str = "base",
    topology: str = "nominal",
) -> SensitivityMatrix:
    """Sensitivity of [v, flows, delta_theta] to [p set-points, v set-points]."""
    n = net.n_bus
    n_gen = net.n_gen
    Y = build_ybus(net)
    slack, pv, pq = _bus_partitions(net)
    ang_idx = np.concatenate([pv, pq])
    mag_idx = pq
    V = op.v_complex

    dS_dVa, dS_dVm = dSbus_dV(Y, V)
    J = np.block([
        [dS_dVa[np.ix_(ang_idx, ang_idx)].real, dS_dVm[np.ix_(ang_idx, mag_idx)].real],
        [dS_dVa[np.ix_(mag_idx, ang_idx)].imag, dS_dVm[np.ix_(mag_idx, mag_idx)].imag],
    ])
    n_ang = len(ang_idx)
    n_unk = n_ang + len(mag_idx)

    gen_bus = net.gen_bus_indices
    ang_pos = {b: i for i, b in enumerate(ang_idx)}

    # right-hand sides: one column per input
    rhs = np.zeros((n_unk, 2 * n_gen))
    direct_vm = np.zeros((n, 2 * n_gen))  # parameter magnitudes (PV and slack buses)
    for g in range(n_gen):
        b = gen_bus[g]
        if b != slack:
            # d(mismatch)/d(P_spec) = -1 at the P row of bus b
            rhs[ang_pos[b], g] = 1.0
        # voltage set-point: the magnitude at bus b is a parameter
        col = np.concatenate([dS_dVm[ang_idx, b].real, dS_dVm[mag_idx, b].imag])
        rhs[:, n_gen + g] = -col
        direct_vm[b, n_gen + g] = 1.0

    try:
        dz = np.linalg.solve(J, rhs)
    except np.linalg.LinAlgError:
        raise VoltageCollapseProximityError(
            "singular power-flow Jacobian at the operating point"
        ) from None

    dva = np.zeros((n, 2 * n_gen))
    dvm = direct_vm.copy()
    dva[ang_idx, :] = dz[:n_ang, :]
    dvm[mag_idx, :] = dz[n_ang:, :]

    dl_dva, dl_dvm = _flow_partials(net, V)
    dflow = dl_dva @ dva + dl_dvm @ dvm

    a, b = net.monitored_indices
    dtheta_row = dva[a, :] - dva[b, :]

    mat = np.vstack([dvm, dflow, dtheta_row])
    return SensitivityMatrix(matrix=mat, operating_point=operating_point, topology=topology)


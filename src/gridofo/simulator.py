"""Fixed-step DAE simulation of the machine fleet coupled to the network.

Machine ODEs advance with RK4 against the algebraic network (machines as
Norton sources, loads as constant impedances). The only current injections
are at the generator internal nodes, so each topology's network is Kron
reduced once, when it is built: the generator-bus voltages of a derivative
evaluation are one n_gen x n_gen product with the subtransient EMFs, and the
full bus voltages one n_bus x n_gen product, formed only at record and
measurement instants. The machine right-hand side is one affine map of the
state and the stator currents. Control blocks advance once per step, before
the RK4 stages, with their inputs frozen over the step: one precomputed
control kernel per step size (`controls.ControlKernel`) advances the
governors, PSSs, exciters and AGC together, from the rotor speeds and the
generator-bus voltages that the first RK4 stage also uses. Every scenario
time is resolved to a whole number of `dt` steps, or refused, before a run
starts; the event engine then applies, by step index, line trips, recloses
(a guarded one waits until the breaker angle is under its guard),
controller activation and direct set-point overrides. The controller's model
topology and its islanded buses are settled with each plant topology; a
controller sample passes its measured bus loads to the model power flow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from . import machines as mc
from .controls import (
    AgcState,
    ControlKernel,
    exciter_init,
    governor_init,
    inertia_weights,
    pss_init,
    stack_states,
)
from .errors import (
    GridDataError,
    IslandingError,
    NetworkSolveError,
    OfoStepError,
    PowerFlowDivergenceError,
    SimulationBlowupError,
    VoltageCollapseProximityError,
)
from .network import (
    Measurement,
    complex_voltage_gap,
    build_ybus,
    extract_measurement,
    solve_power_flow,
)
from .ofo import OfoConfig, OfoState, default_config, ofo_update
from .sensitivity import compute_sensitivity

if TYPE_CHECKING:  # pragma: no cover
    from .dataio import GridData

LINE_TRIP = "line_trip"
LINE_RECLOSE = "line_reclose"
ACTIVATE_OFO = "activate_ofo"
SET_INPUT = "set_input"

_BLOWUP_LIMIT = 1e6
# largest accepted relative residual of a topology's reduced network solve
_SOLVE_RTOL = 1e-8


def _steps(seconds: float, dt: float, what: str) -> int:
    """`seconds` in `dt` steps, if within 1e-9 steps of a whole number;
    GridDataError otherwise."""
    k = seconds / dt
    if not np.isfinite(k) or abs(k - round(k)) > 1e-9:
        raise GridDataError(f"{what}={seconds:g} is not on the time grid (dt={dt:g})")
    return round(k)


@dataclass(frozen=True)
class SimConfig:
    t_end: float
    dt: float = 5e-3
    record_every: float = 0.1

    def __post_init__(self):
        if not (0 < self.dt <= self.record_every and 0 <= self.t_end < np.inf):
            raise GridDataError("sim: need 0 < dt <= record_every and a finite t_end >= 0")
        _steps(self.record_every, self.dt, "sim: record_every")


@dataclass(frozen=True)
class Event:
    time: float
    kind: str
    line_id: Optional[str] = None
    u: Optional[Sequence[float]] = None
    guard_max_angle_deg: Optional[float] = None

    def __post_init__(self):
        if self.time < 0:
            raise GridDataError("event: time must be >= 0")
        if self.kind not in (LINE_TRIP, LINE_RECLOSE, ACTIVATE_OFO, SET_INPUT):
            raise GridDataError(f"event: unknown kind {self.kind!r}")
        if self.kind in (LINE_TRIP, LINE_RECLOSE) and not self.line_id:
            raise GridDataError(f"event: {self.kind} requires line_id")
        guard = self.guard_max_angle_deg
        if guard is not None and not (self.kind == LINE_RECLOSE
                                      and isinstance(guard, (int, float)) and 0 < guard < np.inf):
            raise GridDataError("event: guard_max_angle_deg must be a finite number > 0, "
                                f"on a {LINE_RECLOSE} only")


@dataclass
class Trajectory:
    t: np.ndarray
    vgap: np.ndarray
    v: np.ndarray
    dtheta: np.ndarray
    flows: np.ndarray
    p_ofo: np.ndarray
    v_ofo: np.ndarray
    p_m: np.ndarray
    events: list[tuple[float, str]]


class DynamicSimulation:
    """Owns the full mutable system state of one scenario run."""

    def __init__(self, grid: "GridData", ofo_cfg: Optional[OfoConfig] = None,
                 sensitivity_topology: Optional[str] = None):
        self.grid = grid
        net = grid.net
        self.mach = grid.machines
        self.omega_base = 2 * np.pi * net.frequency
        self.gen_idx = net.gen_bus_indices
        self.ofo_cfg = ofo_cfg if ofo_cfg is not None else default_config(net)
        if sensitivity_topology is not None:
            net.line_index(sensitivity_topology)  # unknown ids fail here
        self.sensitivity_topology = sensitivity_topology

        gen_p0 = np.array([g.p_set for g in net.generators])
        gen_v0 = np.array([g.v_set for g in net.generators])
        self.gen_p0 = gen_p0
        sol0 = solve_power_flow(net, gen_p0, gen_v0)
        V0 = sol0.v_complex

        # loads become constant impedances at the initial voltage profile
        self._load = np.array([b.load_p + 1j * b.load_q for b in net.buses])
        self._v0_mag = np.abs(V0)
        self.y_load = np.conj(self._load) / self._v0_mag ** 2
        self.y_int = 1.0 / (self.mach.R + 1j * self.mach.X_d_pp)
        self._rhs_A, self._rhs_c = mc.affine_rhs(self.mach, self.omega_base)
        self._freq_w = inertia_weights(self.mach.H, self.mach.S)

        s_inj = sol0.p_inj + 1j * sol0.q_inj
        s_gen = s_inj[self.gen_idx] + self._load[self.gen_idx]
        self.x, self.p_m0, self.E_f0 = mc.init_from_power_flow(
            self.mach, V0[self.gen_idx], s_gen, self.omega_base
        )

        self._ctrl = stack_states(
            governor_init(grid.governors, self.p_m0), pss_init(grid.pss, self.mach.n),
            exciter_init(grid.exciters, self.E_f0), AgcState())
        self._kernel: Optional[ControlKernel] = None  # built at the first step

        self.ofo_state = OfoState(u=np.concatenate([np.zeros(net.n_gen), gen_v0]))
        self.p_m = self.p_m0.copy()
        self.E_f = self.E_f0.copy()

        self._sens_warm = sol0
        self.event_log: list[tuple[float, str]] = []
        self._rebuild_network(net)

    # -- topology ------------------------------------------------------------

    def _rebuild_network(self, net_now):
        """Kron-reduce the network of a topology onto the generator nodes.

        The injections are y_int * E'' at the generator buses, so the bus
        voltages are W @ E'' with W = inv(Y_dyn)[:, gen] * diag(y_int), and
        the generator-bus voltages Z @ E'' with Z = W[gen].
        """
        lost = net_now.islanded_buses()
        if lost:
            raise IslandingError(lost)
        Y = build_ybus(net_now)
        Y[np.diag_indices_from(Y)] += self.y_load
        Y[self.gen_idx, self.gen_idx] += self.y_int
        B = np.zeros((net_now.n_bus, net_now.n_gen), dtype=complex)
        B[self.gen_idx, np.arange(net_now.n_gen)] = self.y_int
        # one single-RHS solve per column: a multi-RHS lu_solve wakes
        # OpenBLAS' helper thread, which then spins in every pool worker;
        # W itself is checked for finiteness below
        lu = lu_factor(Y)
        W = np.column_stack([lu_solve(lu, B[:, j], check_finite=False)
                             for j in range(net_now.n_gen)])
        resid = np.linalg.norm(Y @ W - B) / np.linalg.norm(B)
        if not (np.isfinite(W).all() and resid <= _SOLVE_RTOL):
            raise NetworkSolveError(
                f"network solve residual {resid:.3e} above {_SOLVE_RTOL:g} "
                "or not finite")
        self._net_now = net_now
        self._W = W
        self._Z = W[self.gen_idx]
        topo = self.sensitivity_topology
        self._model_net = net_now if topo is None else net_now.with_line_out(topo)
        # with no erased line the model is the plant, connected (checked above)
        self._model_lost = () if topo is None else self._model_net.islanded_buses()

    def set_line_status(self, line_id: str, in_service: bool) -> bool:
        """Returns True when the status actually changed (trip is idempotent)."""
        net = self._net_now
        if net.lines[net.line_index(line_id)].in_service == in_service:
            return False
        self._rebuild_network(net.with_line_status(line_id, in_service))
        return True

    # -- algebraic network and derivatives ----------------------------------

    def bus_voltages(self) -> np.ndarray:
        return self._W @ mc.internal_emf(self.x)

    def _frame(self, x: np.ndarray):
        """Rotor-to-grid rotation, dq subtransient EMFs and generator-bus
        voltages (from the reduced network) of state x."""
        rot = np.exp(1j * (x[:, mc.DELTA] - np.pi / 2))
        e_dq = x[:, mc.ED_PP] + 1j * x[:, mc.EQ_PP]
        return rot, e_dq, self._Z @ (e_dq * rot)

    def _derivs(self, x: np.ndarray, frame=None):
        """machine_derivatives of the fleet at state x, fused.

        `frame` is `_frame(x)`, when the caller has it already.
        """
        omega = 1.0 + x[:, mc.OMEGA]
        if not omega.min() > 0:  # also trips on NaN
            raise SimulationBlowupError("rotor speed reached zero or is not finite")
        rot, e_dq, vg = self._frame(x) if frame is None else frame
        # stator currents I_d + j I_q = (E''_dq - v_dq) / (R + j X_d'')
        i_dq = self.y_int * (e_dq - vg * rot.conj())
        p_e = (e_dq.conj() * i_dq).real  # E_d'' I_d + E_q'' I_q
        z = np.concatenate((x.ravel(), i_dq.real, i_dq.imag,
                            self.p_m / omega - p_e, self.E_f))
        return (self._rhs_A @ z + self._rhs_c).reshape(x.shape)

    # -- time stepping -------------------------------------------------------

    def step(self, dt: float) -> None:
        """Advance one step."""
        kernel = self._kernel
        if kernel is None or kernel.dt != dt:
            g = self.grid
            kernel = self._kernel = ControlKernel(
                g.governors, g.pss, g.exciters, g.agc, self._freq_w,
                self.p_m0, self.E_f0, dt)
        x = self.x
        frame = self._frame(x)
        delta_v = self.ofo_state.v_ofo - np.abs(frame[2])
        self._ctrl, p_ctrl, self.E_f = kernel.step(self._ctrl, x[:, mc.OMEGA], delta_v)
        self.p_m = p_ctrl + self.ofo_state.p_ofo

        half = 0.5 * dt
        k1 = self._derivs(x, frame=frame)
        k2 = self._derivs(x + half * k1)
        k3 = self._derivs(x + half * k2)
        k4 = self._derivs(x + dt * k3)
        self.x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.abs(self.x).max() <= _BLOWUP_LIMIT:  # also trips on NaN
            raise SimulationBlowupError("dynamic state exceeded blowup limit")

    def measurement(self, t: float) -> Measurement:
        return extract_measurement(self._net_now, self.bus_voltages(), t)

    # -- controller ----------------------------------------------------------

    def controller_update(self, t: float):
        """One controller sample on the model topology (the plant's, less the
        erased `sensitivity_topology` line of the robustness study), whose bus
        loads are what the impedance loads draw at the measured voltages."""
        y_m = self.measurement(t)
        model_net = self._model_net
        load = self._load * (y_m.v / self._v0_mag) ** 2
        st = self.ofo_state
        try:
            if self._model_lost:
                raise IslandingError(self._model_lost)
            sol = None
            for warm in (self._sens_warm, None):
                try:
                    cand = solve_power_flow(
                        model_net, self.gen_p0 + st.p_ofo, st.v_ofo,
                        warm_start=warm, load=load)
                except PowerFlowDivergenceError:
                    continue
                # reject convergence onto an implausible (low-voltage) branch
                if 0.8 <= cand.v.min() and cand.v.max() <= 1.2:
                    sol = cand
                    break
            if sol is None:
                raise VoltageCollapseProximityError(
                    "model power flow found no plausible operating point")
            self._sens_warm = sol
            S = compute_sensitivity(model_net, sol)
        except (IslandingError, PowerFlowDivergenceError,
                VoltageCollapseProximityError) as exc:
            # no trustworthy sensitivity at this instant: hold the input
            self.event_log.append((t, f"sensitivity update skipped: {exc}"))
            return
        try:
            self.ofo_state = ofo_update(self.ofo_cfg, st, y_m, S)
        except OfoStepError as exc:
            self.event_log.append((t, f"set-point update skipped: {exc}"))


def check_events(net, events: Sequence[Event], sim_cfg: SimConfig,
                 sampling_period: float) -> tuple[dict[int, list[Event]], int]:
    """Resolve a scenario's times to steps of the time grid.

    Returns the events by the step at which they apply, in time order, and
    the sampling period in steps. Unknown lines, malformed inputs, times
    between steps or after the last step, and a sampling period under one
    step are refused, instead of being moved or dropped.
    """
    n_u = 2 * net.n_gen
    dt = sim_cfg.dt
    sample_steps = _steps(sampling_period, dt, "ofo: sampling_period")
    if sample_steps < 1:
        raise GridDataError(f"ofo: sampling_period below dt={dt:g}")
    last_step = round(sim_cfg.t_end / dt)
    schedule: dict[int, list[Event]] = {}
    for ev in sorted(events, key=lambda e: e.time):
        k = _steps(ev.time, dt, "event time")
        if k > last_step:
            raise GridDataError(
                f"event at t={ev.time:g}: after t_end={sim_cfg.t_end:g}")
        if ev.kind in (LINE_TRIP, LINE_RECLOSE):
            net.line_index(ev.line_id)
        elif ev.kind == SET_INPUT:
            try:
                u = np.asarray(ev.u, dtype=float)
            except (TypeError, ValueError):
                u = None
            if u is None or u.shape != (n_u,) or not np.all(np.isfinite(u)):
                raise GridDataError(
                    f"event at t={ev.time:g}: set_input u needs {n_u} finite entries")
        schedule.setdefault(k, []).append(ev)
    return schedule, sample_steps


def run_scenario(grid: "GridData", events: Sequence[Event], ofo_cfg: Optional[OfoConfig],
                 sim_cfg: SimConfig,
                 sensitivity_topology: Optional[str] = None) -> Trajectory:
    """Run one closed-loop scenario and record the trajectory."""
    if ofo_cfg is None:
        ofo_cfg = default_config(grid.net)
    schedule, samp_stride = check_events(grid.net, events, sim_cfg,
                                         ofo_cfg.sampling_period)
    sim = DynamicSimulation(grid, ofo_cfg, sensitivity_topology)
    dt = sim_cfg.dt
    n_steps = round(sim_cfg.t_end / dt)
    rec_stride = round(sim_cfg.record_every / dt)
    blocked: list[Event] = []  # guarded recloses waiting for the angle
    activate_step = 0

    rec: dict[str, list] = {k: [] for k in (
        "t", "vgap", "v", "dtheta", "flows", "p_ofo", "v_ofo", "p_m")}

    for k in range(n_steps + 1):
        t = k * dt
        for ev in schedule.get(k, []) + blocked:
            if ev.kind == LINE_TRIP:
                changed = sim.set_line_status(ev.line_id, False)
                sim.event_log.append(
                    (t, f"line {ev.line_id} tripped" if changed
                     else f"line {ev.line_id} already out; trip ignored"))
            elif ev.kind == LINE_RECLOSE:
                guard = ev.guard_max_angle_deg
                if guard is not None and (gap_deg := abs(np.degrees(
                        sim.measurement(t).delta_theta))) >= guard:
                    if ev not in blocked:
                        blocked.append(ev)
                        sim.event_log.append(
                            (t, f"reclose of {ev.line_id} blocked: "
                                f"angle {gap_deg:.1f} deg above guard"))
                    continue
                if ev in blocked:
                    blocked.remove(ev)
                if sim.set_line_status(ev.line_id, True):
                    sim.event_log.append((t, f"line {ev.line_id} reclosed"))
            elif ev.kind == ACTIVATE_OFO:
                activate_step = k
                sim.ofo_state = replace(sim.ofo_state, active=True)
                sim.event_log.append((t, "OFO controller activated"))
            else:  # SET_INPUT
                sim.ofo_state = replace(sim.ofo_state, u=ev.u)
                sim.event_log.append((t, "set-point override applied"))

        if sim.ofo_state.active and (k - activate_step) % samp_stride == 0:
            sim.controller_update(t)

        if k % rec_stride == 0:
            m = sim.measurement(t)
            rec["t"].append(t)
            rec["vgap"].append(complex_voltage_gap(m))
            rec["v"].append(m.v)
            rec["dtheta"].append(m.delta_theta)
            rec["flows"].append(m.flows)
            rec["p_ofo"].append(sim.ofo_state.p_ofo.copy())
            rec["v_ofo"].append(sim.ofo_state.v_ofo.copy())
            rec["p_m"].append(sim.p_m.copy())

        if k < n_steps:
            sim.step(dt)

    return Trajectory(**{key: np.array(rows) for key, rows in rec.items()},
                      events=list(sim.event_log))

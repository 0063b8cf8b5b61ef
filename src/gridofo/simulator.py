"""Fixed-step DAE simulation of the machine fleet coupled to the network.

Machine ODEs advance with RK4 against the algebraic network (machines as
Norton sources, loads as constant impedances). The only current injections
are at the generator internal nodes, so each topology's network is Kron
reduced once, when it is built, to two n_gen x n_gen matrices on the
subtransient EMFs e in the grid frame: Z, the generator-bus voltages Z e,
and the stator admittance Y = diag(y_int)(I - Z), the stator currents Y e.
The full bus voltages, one n_bus x n_gen product, are formed only at record
and measurement instants. An RK4 stage is a short fixed sequence of numpy
calls on buffers allocated once: one `cos` for the rotor rotations, one
product with [Y; Z] in real form, and one product of the stage vector with
`machines.affine_rhs`'s matrix, whose current and torque columns take the dq
currents and the air-gap power as pairs of products. `step` and the
derivative oracle `_derivs` share this stage code.

A step runs from a plan built at the first step with each step size: a
control kernel (`controls.ControlKernel`), which advances the governors,
PSSs, exciters and AGC together in its own work vector, and the stage matrix
scaled by each RK4 stage step h = dt/2, dt/2, dt, dt, so a stage's
increment h k is one product and the next stage's state one sum. Control
blocks advance once per step, before the RK4 stages, with their inputs
frozen over the step: the rotor speeds and generator-bus voltages of the
first stage are written straight into the kernel's input slots, and the
simulator's control state is a view of the kernel's, carried over to the
next plan when the step size changes. Every rotor speed is checked in every
stage and the new state once per step; apart from those, a step allocates
only its new state, p_m and E_f.

Every scenario time and controller sample is resolved to a step of `dt`, or
refused, before a run starts; the event engine then applies, by step index,
line trips, recloses (a guarded one waits until the breaker angle is under
its guard), controller activation and direct set-point overrides. The
controller's model topology and its islanded buses are settled with each
plant topology; a controller sample passes its measured bus loads to the
model power flow.

A run reports what happened as typed `RunEvent` records, in the order they
happened: each applied scenario event under its own kind, an ignored trip
(`TRIP_IGNORED`), a reclose held by its guard (`RECLOSE_BLOCKED`) and a
controller sample that held its input (`SAMPLE_SKIPPED`). `run_scenario`
keeps the only log; `Trajectory.events` is that list, and each record's
`text` is its line of `events.log`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

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
# run-log kinds beyond the applied scenario events
TRIP_IGNORED = "trip_ignored"
RECLOSE_BLOCKED = "reclose_blocked"
SAMPLE_SKIPPED = "sample_skipped"

_BLOWUP_LIMIT = 1e6
# largest accepted relative residual of a topology's reduced network solve
_SOLVE_RTOL = 1e-8
# cos(delta + offset) of a stage: [sin, cos] and [cos, -sin] of delta per
# machine; the second pair, read as a complex number, is exp(-j delta)
_TRIG_OFFSETS = np.array([[[-np.pi / 2, 0.0]], [[0.0, np.pi / 2]]])
# RK4 stage steps, in dt, and the weights of the stage increments h_i k_i
# they give in the step's sum
_RK4_STAGES = np.array([0.5, 0.5, 1.0, 1.0])
_RK4_WEIGHTS = np.array([1 / 3, 2 / 3, 1 / 3, 1 / 6])


def _real_form(C: np.ndarray) -> np.ndarray:
    """The real matrix that acts like the complex matrix C on the interleaved
    float view of a complex vector."""
    m, k = C.shape
    R = np.empty((m, 2, k, 2))
    R[:, 0, :, 0] = R[:, 1, :, 1] = C.real
    R[:, 0, :, 1] = -C.imag
    R[:, 1, :, 0] = C.imag
    return R.reshape(2 * m, 2 * k)


def _stage_matrix(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """`machines.affine_rhs`'s (A, c) as one matrix on the stage vector.

    The stage vector is [x.ravel(), P, p_m / omega, E_f, 1], where P holds
    for i_d, then i_q, then p_e, one pair of products per machine whose sum
    is that quantity; so each column of i_d, i_q and -p_e appears twice.
    """
    n6 = A.shape[0]
    n = n6 // mc.N_STATES

    def block(b):
        return A[:, n6 + b * n:n6 + (b + 1) * n]

    pairs = np.hstack((block(mc.I_D), block(mc.I_Q), -block(mc.TORQUE)))
    return np.hstack((A[:, :n6], np.repeat(pairs, 2, axis=1),
                      block(mc.TORQUE), block(mc.E_F), c[:, None]))


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


class RunEvent(NamedTuple):
    """One record of a run's log: its time, its kind, and its `events.log` text."""
    t: float
    kind: str
    text: str


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
    events: list[RunEvent]


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
        self._A = _stage_matrix(*mc.affine_rhs(self.mach, self.omega_base))
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
        self._alloc_stage_buffers(self.mach.n)
        self._rebuild_network(net)

    def _alloc_stage_buffers(self, n: int):
        """The RK4 stage buffers and their views, allocated once.

        `_z` is the stage vector of `_stage_matrix`: the stage state, the pair
        products, p_m / omega, E_f and 1. `_trig` holds [sin, cos] and
        [cos, -sin] of each rotor angle, then the conjugate grid-frame EMF
        conj(e) as pairs; `_gv` holds conj(Y e) and conj(Z e) as pairs.
        """
        n6 = mc.N_STATES * n
        z = self._z = np.zeros(n6 + 8 * n + 1)
        z[-1] = 1.0
        self._zx = z[:n6]
        self._zx2 = self._zx.reshape(n, mc.N_STATES)
        self._z_domega = z[mc.OMEGA:n6:mc.N_STATES]
        self._z_delta = z[mc.DELTA:n6:mc.N_STATES][:, None]
        # E_q'' + j E_d'' per machine, in place in the stage state (the
        # state layout puts E_d'' right after E_q'')
        self._z_emf = self._zx2[:, mc.EQ_PP:mc.ED_PP + 1].view(complex)
        self._z_prod = z[n6:n6 + 6 * n].reshape(3, n, 2)
        self._z_torque = z[n6 + 6 * n:n6 + 7 * n]
        self._z_ef = z[n6 + 7 * n:n6 + 8 * n]
        self._omega = np.empty(n)
        trig = self._trig = np.empty((3, n, 2))
        self._cos = trig[:2]
        self._rot = trig[1].view(complex)
        self._emf_rot = trig[2].view(complex)
        self._emf_flat = trig[2].reshape(-1)
        self._gv = np.empty(4 * n)
        self._g_pairs = self._gv[:2 * n].reshape(n, 2)
        self._vg = self._gv[2 * n:].view(complex)
        self._K = np.empty((4, n6))

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
        try:
            W = np.linalg.solve(Y, B)
        except np.linalg.LinAlgError as exc:
            raise NetworkSolveError(f"network solve failed: {exc}") from None
        resid = np.linalg.norm(Y @ W - B) / np.linalg.norm(B)
        if not (np.isfinite(W).all() and resid <= _SOLVE_RTOL):
            raise NetworkSolveError(
                f"network solve residual {resid:.3e} above {_SOLVE_RTOL:g} "
                "or not finite")
        self._net_now = net_now
        self._W = W
        Z = W[self.gen_idx]
        # stator currents y_int (e - Z e) and generator-bus voltages Z e, as
        # conj(Y_st e) and conj(Z e) from conj(e)
        Y_st = self.y_int[:, None] * (np.eye(len(Z)) - Z)
        self._YZ = _real_form(np.conj(np.vstack((Y_st, Z))))
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

    def _currents(self):
        """Stator currents of the stage state, as the pair products of `_z`,
        and the generator-bus voltages, in `_vg` (conjugated)."""
        cos = self._cos
        np.add(self._z_delta, _TRIG_OFFSETS, out=cos)
        np.cos(cos, out=cos)
        # conj(e) = (E_q'' + j E_d'') exp(-j delta)
        np.multiply(self._z_emf, self._rot, out=self._emf_rot)
        np.dot(self._YZ, self._emf_flat, out=self._gv)
        # with g = conj(Y e): i_d = g_r sin + g_i cos, i_q = g_r cos - g_i sin
        # and p_e = Re(conj(e) conj(g)), each the sum of a pair of products
        np.multiply(self._trig, self._g_pairs, out=self._z_prod)

    def _rhs(self, A: np.ndarray, out: np.ndarray):
        """Machine right-hand side of the stage state, times the stage step
        that `A` (the stage matrix, scaled by it) carries, into `out`; the
        currents are `_currents`' and E_f is in `_z` already."""
        omega = np.add(self._z_domega, 1.0, out=self._omega)
        if not np.minimum.reduce(omega) > 0:  # also trips on NaN
            raise SimulationBlowupError("rotor speed reached zero or is not finite")
        np.divide(self.p_m, omega, out=self._z_torque)
        np.dot(A, self._z, out=out)

    def _derivs(self, x: np.ndarray) -> np.ndarray:
        """machine_derivatives of the fleet at state x, by the stage code."""
        np.copyto(self._zx2, x)
        self._z_ef[:] = self.E_f
        self._currents()
        self._rhs(self._A, self._K[0])
        return self._K[0].reshape(x.shape).copy()

    # -- time stepping -------------------------------------------------------

    def _plan(self, dt: float) -> ControlKernel:
        """The step plan for `dt`: a control kernel that carries the control
        state over, and the stage matrix scaled by each RK4 stage step.
        An invalid `dt` raises GridDataError here, before anything changes."""
        g = self.grid
        kernel = ControlKernel(g.governors, g.pss, g.exciters, g.agc, self._freq_w,
                               self.p_m0, self.E_f0, dt, self._ctrl)
        self._stage_A = (dt * _RK4_STAGES)[:, None, None] * self._A
        self._kernel = kernel
        self._ctrl = kernel.state
        return kernel

    def step(self, dt: float) -> None:
        """Advance one step."""
        kernel = self._kernel
        if kernel is None or kernel.dt != dt:
            kernel = self._plan(dt)
        x, zx, K, A = self.x, self._zx, self._K, self._stage_A
        np.copyto(self._zx2, x)
        self._currents()
        np.copyto(kernel.delta_omega, self._z_domega)
        delta_v = np.abs(self._vg, out=kernel.delta_v)
        np.subtract(self.ofo_state.v_ofo, delta_v, out=delta_v)
        p_ctrl, E_f = kernel.step()
        self.p_m = p_ctrl + self.ofo_state.p_ofo
        self.E_f = E_f.copy()
        self._z_ef[:] = E_f
        # K[i] holds the increment h_i k_i of stage i
        self._rhs(A[0], K[0])
        x_flat = x.reshape(-1)
        for i in range(3):
            np.add(x_flat, K[i], out=zx)
            self._currents()
            self._rhs(A[i + 1], K[i + 1])
        x_new = np.dot(_RK4_WEIGHTS, K).reshape(x.shape)
        np.add(x_new, x, out=x_new)
        if not (np.maximum.reduce(x_new, axis=None) <= _BLOWUP_LIMIT  # also trips on NaN
                and np.minimum.reduce(x_new, axis=None) >= -_BLOWUP_LIMIT):
            raise SimulationBlowupError("dynamic state exceeded blowup limit")
        self.x = x_new

    def measurement(self, t: float) -> Measurement:
        return extract_measurement(self._net_now, self.bus_voltages(), t)

    # -- controller ----------------------------------------------------------

    def controller_update(self, t: float) -> Optional[RunEvent]:
        """One controller sample on the model topology (the plant's, less the
        erased `sensitivity_topology` line of the robustness study), whose bus
        loads are what the impedance loads draw at the measured voltages.
        Returns the `SAMPLE_SKIPPED` record of a sample that held its input,
        or None."""
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
            return RunEvent(t, SAMPLE_SKIPPED, f"sensitivity update skipped: {exc}")
        try:
            self.ofo_state = ofo_update(self.ofo_cfg, st, y_m, S)
        except OfoStepError as exc:
            return RunEvent(t, SAMPLE_SKIPPED, f"set-point update skipped: {exc}")
        return None


def check_events(net, events: Sequence[Event], sim_cfg: SimConfig,
                 sampling_period: float) -> tuple[dict[int, list[Event]], set[int]]:
    """Resolve a scenario's times to steps of the time grid.

    Returns the events by the step at which they apply, in time order, and
    the controller's sample steps: every period from each activation until
    the next. Unknown lines, malformed inputs, times between steps or after
    the last step, and a sampling period under one step are refused, not
    moved or dropped.
    """
    n_u = 2 * net.n_gen
    dt = sim_cfg.dt
    sample_steps = _steps(sampling_period, dt, "ofo: sampling_period")
    if sample_steps < 1:
        raise GridDataError(f"ofo: sampling_period below dt={dt:g}")
    last_step = round(sim_cfg.t_end / dt)
    schedule: dict[int, list[Event]] = {}
    on: list[int] = []  # activation steps, in order
    for ev in sorted(events, key=lambda e: e.time):
        k = _steps(ev.time, dt, "event time")
        if k > last_step:
            raise GridDataError(
                f"event at t={ev.time:g}: after t_end={sim_cfg.t_end:g}")
        if ev.kind in (LINE_TRIP, LINE_RECLOSE):
            net.line_index(ev.line_id)
        elif ev.kind == ACTIVATE_OFO:
            on.append(k)
        elif ev.kind == SET_INPUT:
            try:
                u = np.asarray(ev.u, dtype=float)
            except (TypeError, ValueError):
                u = None
            if u is None or u.shape != (n_u,) or not np.all(np.isfinite(u)):
                raise GridDataError(
                    f"event at t={ev.time:g}: set_input u needs {n_u} finite entries")
        schedule.setdefault(k, []).append(ev)
    samples: set[int] = set()
    for start, stop in zip(on, [*on[1:], last_step + 1]):
        samples.update(range(start, stop, sample_steps))
    return schedule, samples


def run_scenario(grid: "GridData", events: Sequence[Event], ofo_cfg: Optional[OfoConfig],
                 sim_cfg: SimConfig,
                 sensitivity_topology: Optional[str] = None) -> Trajectory:
    """Run one closed-loop scenario and record the trajectory."""
    if ofo_cfg is None:
        ofo_cfg = default_config(grid.net)
    schedule, samples = check_events(grid.net, events, sim_cfg,
                                     ofo_cfg.sampling_period)
    sim = DynamicSimulation(grid, ofo_cfg, sensitivity_topology)
    dt = sim_cfg.dt
    n_steps = round(sim_cfg.t_end / dt)
    rec_stride = round(sim_cfg.record_every / dt)
    blocked: list[Event] = []  # guarded recloses waiting for the angle
    log: list[RunEvent] = []

    rec: dict[str, list] = {k: [] for k in (
        "t", "vgap", "v", "dtheta", "flows", "p_ofo", "v_ofo", "p_m")}

    for k in range(n_steps + 1):
        t = k * dt
        pending = schedule.get(k, ())
        if blocked:  # a copy, as a reclose that goes through leaves `blocked`
            pending = [*pending, *blocked]
        for ev in pending:
            if ev.kind == LINE_TRIP:
                if sim.set_line_status(ev.line_id, False):
                    log.append(RunEvent(t, LINE_TRIP, f"line {ev.line_id} tripped"))
                else:
                    log.append(RunEvent(t, TRIP_IGNORED,
                                        f"line {ev.line_id} already out; trip ignored"))
            elif ev.kind == LINE_RECLOSE:
                guard = ev.guard_max_angle_deg
                if guard is not None and (gap_deg := abs(np.degrees(
                        sim.measurement(t).delta_theta))) >= guard:
                    if ev not in blocked:
                        blocked.append(ev)
                        log.append(RunEvent(
                            t, RECLOSE_BLOCKED, f"reclose of {ev.line_id} blocked: "
                                                f"angle {gap_deg:.1f} deg above guard"))
                    continue
                if ev in blocked:
                    blocked.remove(ev)
                if sim.set_line_status(ev.line_id, True):
                    log.append(RunEvent(t, LINE_RECLOSE, f"line {ev.line_id} reclosed"))
            elif ev.kind == ACTIVATE_OFO:
                sim.ofo_state = replace(sim.ofo_state, active=True)
                log.append(RunEvent(t, ACTIVATE_OFO, "OFO controller activated"))
            else:  # SET_INPUT
                sim.ofo_state = replace(sim.ofo_state, u=ev.u)
                log.append(RunEvent(t, SET_INPUT, "set-point override applied"))

        if k in samples and (skip := sim.controller_update(t)) is not None:
            log.append(skip)

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
                      events=log)


@dataclass(frozen=True)
class SweepPlan:
    """An erased-line sweep's members and the recorded rows its statistics read."""
    members: list  # None, the nominal run on the plant's topology, then line ids
    skipped: list[tuple[str, str]]  # (line id, reason), in line order
    rows: list[int]  # the first recorded row at or after each controller sample


def sweep_plan(grid: "GridData", events: Sequence[Event], ofo_cfg: OfoConfig,
               sim_cfg: SimConfig) -> SweepPlan:
    """Plan a scenario's sweep: one member per in-service line not tripped
    whose erasure from the controller model leaves the post-contingency grid
    whole. Refuses input errors, and a first activation without a recorded
    row before it and one at or after it, before any member runs."""
    _, samples = check_events(grid.net, events, sim_cfg, ofo_cfg.sampling_period)
    if not samples:
        raise GridDataError(f"robustness: the scenario needs an {ACTIVATE_OFO} event")
    stride = round(sim_cfg.record_every / sim_cfg.dt)
    last_row = round(sim_cfg.t_end / sim_cfg.dt) // stride
    rows = [-(-k // stride) for k in sorted(samples)]
    if not 0 < rows[0] <= last_row:
        raise GridDataError(
            f"robustness: {ACTIVATE_OFO} needs a recorded row before it and one "
            f"at or after it (t={min(samples) * sim_cfg.dt:g})")

    tripped = {ev.line_id for ev in events if ev.kind == LINE_TRIP}
    # the controller model starts from the post-contingency topology, so the
    # islanding precheck must apply the scripted trips before the erasure
    post_net = grid.net
    for lid in tripped:
        post_net = post_net.with_line_out(lid)
    members, skipped = [None], []
    for ln in grid.net.lines:
        if ln.id in tripped or not ln.in_service:
            continue
        if post_net.with_line_out(ln.id).islanded_buses():
            skipped.append((ln.id, "removal islands the post-contingency grid"))
        else:
            members.append(ln.id)
    return SweepPlan(members, skipped, [r for r in rows if r <= last_row])


def gap_statistics(plan: SweepPlan, nominal: np.ndarray,
                   vgap: np.ndarray) -> tuple[float, float, Optional[int], bool]:
    """A member's largest gap from the first activation on, its final gap,
    the first sample after the activation (counted from 1) whose row holds
    at most half the gap at activation, or None, and whether it is stable:
    its largest gap within 3 times, and its final gap under, the nominal
    run's peak before the activation."""
    on, *later = plan.rows
    peak = nominal[:on].max()
    top = vgap[on:].max()
    halve = next((i for i, row in enumerate(later, 1) if vgap[row] <= 0.5 * vgap[on]),
                 None)
    return top, vgap[-1], halve, bool(top <= 3.0 * peak and vgap[-1] < peak)

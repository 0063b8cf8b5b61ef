"""Static grid model, admittance matrix, Newton-Raphson AC power flow.

All quantities are in per-unit on the system base. Line flows are reported
as apparent-power magnitudes at the from-end; their lower bound is zero by
construction, so flow limits are one-sided caps.

A line enters every network computation through `NetworkModel.branches`:
from/to bus indices and series/shunt admittances, zero for a line out of
service. The Y-bus, the line flows and their partials (in `sensitivity`)
are vectorized over those arrays. Each topology also has one read-only
`NewtonPlan` (`NetworkModel.newton_plan`), built on first use: the Y-bus,
the Newton unknowns, the slack, the bus loads and Y's nonzero pattern with
the scatter positions of the Jacobian. `pf_jacobian` assembles the one
Newton Jacobian from those nonzeros, for the power flow and the
sensitivity alike. A power flow takes the buses' loads, or a `load` vector
that replaces them, so a caller whose loads change but whose topology does
not keeps one model and its plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateLineError,
    GridDataError,
    PowerFlowDivergenceError,
)

SLACK = "slack"
PV = "PV"
PQ = "PQ"

_PF_TOL = 1e-10  # largest accepted P/Q mismatch, p.u.
_PF_MAX_ITER = 50


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark an array cached on a model read-only, so no caller can edit the cache."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str = PQ
    load_p: float = 0.0
    load_q: float = 0.0
    shunt_b: float = 0.0
    v_min: float = 0.9
    v_max: float = 1.1

    def __post_init__(self):
        if self.kind not in (SLACK, PV, PQ):
            raise GridDataError(f"bus {self.id}: unknown kind {self.kind!r}")
        if not self.v_min < self.v_max:
            raise GridDataError(f"bus {self.id}: v_min must be below v_max")
        if not (np.isfinite(self.load_p) and np.isfinite(self.load_q)):
            raise GridDataError(f"bus {self.id}: loads must be finite")


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_charging: float = 0.0
    flow_max: float = 10.0
    in_service: bool = True

    def __post_init__(self):
        if self.in_service and self.x == 0.0 and self.r == 0.0:
            raise DegenerateLineError(f"line {self.id}: zero series impedance")
        if self.flow_max <= 0:
            raise GridDataError(f"line {self.id}: flow_max must be positive")


@dataclass(frozen=True)
class GenLocation:
    bus: int
    machine: str
    p_set: float = 0.0
    v_set: float = 1.0


@dataclass(frozen=True)
class NetworkModel:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[GenLocation, ...]
    base_power: float
    monitored_pair: tuple[int, int]
    frequency: float = 60.0

    def __post_init__(self):
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise GridDataError("duplicate bus ids")
        idset = set(ids)
        for ln in self.lines:
            if ln.from_bus not in idset or ln.to_bus not in idset:
                raise GridDataError(f"line {ln.id} references unknown bus")
        for g in self.generators:
            if g.bus not in idset:
                raise GridDataError(f"generator at unknown bus {g.bus}")
        if sum(1 for b in self.buses if b.kind == SLACK) != 1:
            raise GridDataError("exactly one slack bus required")
        a, b = self.monitored_pair
        if a not in idset or b not in idset:
            raise GridDataError("monitored_pair references unknown bus")

    # -- index helpers -------------------------------------------------------

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def n_line(self) -> int:
        return len(self.lines)

    @property
    def n_gen(self) -> int:
        return len(self.generators)

    def bus_index(self, bus_id: int) -> int:
        try:
            return self._bus_index[bus_id]
        except KeyError:
            raise GridDataError(f"unknown bus id {bus_id}") from None

    @cached_property
    def _bus_index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    @cached_property
    def branches(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(f, t, ys, ysh) per line: from/to bus index, series admittance and
        per-end shunt admittance, cached read-only.

        A line out of service keeps its bus indices but has zero admittances,
        so it stamps nothing into the Y-bus and carries no flow.
        """
        n = self.n_line
        f, t = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
        ys, ysh = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
        for k, ln in enumerate(self.lines):
            f[k], t[k] = self.bus_index(ln.from_bus), self.bus_index(ln.to_bus)
            if ln.in_service:
                ys[k], ysh[k] = line_admittances(ln)
        return tuple(map(_read_only, (f, t, ys, ysh)))

    def line_index(self, line_id: str) -> int:
        for i, ln in enumerate(self.lines):
            if ln.id == line_id:
                return i
        raise GridDataError(f"unknown line id {line_id}")

    @property
    def slack_index(self) -> int:
        return next(i for i, b in enumerate(self.buses) if b.kind == SLACK)

    @cached_property
    def newton_plan(self) -> "NewtonPlan":
        """Y-bus, unknowns and Jacobian scatter of this topology, cached read-only."""
        return _newton_plan(self)

    @cached_property
    def gen_bus_indices(self) -> np.ndarray:
        """Bus index of every generator, cached read-only."""
        return _read_only(np.array([self.bus_index(g.bus) for g in self.generators],
                                   dtype=int))

    @property
    def monitored_indices(self) -> tuple[int, int]:
        a, b = self.monitored_pair
        return self.bus_index(a), self.bus_index(b)

    # -- topology edits (model stays immutable; edits return copies) ---------

    def with_line_status(self, line_id: str, in_service: bool) -> "NetworkModel":
        k = self.line_index(line_id)
        lines = list(self.lines)
        lines[k] = replace(lines[k], in_service=in_service)
        return replace(self, lines=tuple(lines))

    def with_line_out(self, line_id: str) -> "NetworkModel":
        return self.with_line_status(line_id, False)

    def connected_components(self) -> list[set[int]]:
        """Connected components of the in-service line graph, as bus-id sets."""
        adj: dict[int, set[int]] = {b.id: set() for b in self.buses}
        for ln in self.lines:
            if ln.in_service:
                adj[ln.from_bus].add(ln.to_bus)
                adj[ln.to_bus].add(ln.from_bus)
        seen: set[int] = set()
        comps = []
        for start in adj:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in comp:
                        comp.add(v)
                        stack.append(v)
            seen |= comp
            comps.append(comp)
        return comps

    def islanded_buses(self) -> tuple[int, ...]:
        """Sorted ids of the buses outside the largest component (empty if connected)."""
        main = max(self.connected_components(), key=len)
        return tuple(sorted(b.id for b in self.buses if b.id not in main))


@dataclass(frozen=True)
class PowerFlowSolution:
    v: np.ndarray
    theta: np.ndarray
    p_inj: np.ndarray
    q_inj: np.ndarray
    residual: float
    iterations: int = 0

    @property
    def v_complex(self) -> np.ndarray:
        return self.v * np.exp(1j * self.theta)


@dataclass(frozen=True)
class Measurement:
    """Controller output vector: bus voltages, line flows, monitored angle gap."""

    v: np.ndarray
    flows: np.ndarray
    delta_theta: float
    timestamp: float
    monitored_idx: tuple[int, int]

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.v, self.flows, [self.delta_theta]])


# ---------------------------------------------------------------------------
# Admittance matrix and flows
# ---------------------------------------------------------------------------

def line_admittances(line: Line) -> tuple[complex, complex]:
    """Series admittance and per-end shunt (charging) admittance of a line."""
    z = complex(line.r, line.x)
    if z == 0:
        raise DegenerateLineError(f"line {line.id}: zero series impedance")
    return 1.0 / z, 1j * line.b_charging / 2.0


def build_ybus(net: NetworkModel) -> np.ndarray:
    """Complex bus-admittance matrix; out-of-service lines contribute nothing."""
    f, t, ys, ysh = net.branches
    Y = np.diag(1j * np.array([b.shunt_b for b in net.buses]))
    np.add.at(Y, (np.concatenate([f, t, f, t]), np.concatenate([f, t, t, f])),
              np.concatenate([ys + ysh, ys + ysh, -ys, -ys]))
    return Y


def line_flow_complex(net: NetworkModel, V: np.ndarray) -> np.ndarray:
    """From-end complex power of every line (zero when out of service)."""
    f, t, ys, ysh = net.branches
    v_from = V[f]
    return v_from * np.conj(ys * (v_from - V[t]) + ysh * v_from)


def extract_measurement(net, sol, t: float = 0.0) -> Measurement:
    """Build the controller output y = [v, flows, delta_theta] at time t.

    `sol` may be a PowerFlowSolution or a complex bus-voltage array.
    """
    if isinstance(sol, PowerFlowSolution):
        V = sol.v_complex
    else:
        V = np.asarray(sol, dtype=complex)
    if V.shape != (net.n_bus,):
        raise GridDataError("solution dimension does not match network")
    a, b = net.monitored_indices
    return Measurement(
        v=np.abs(V),
        flows=np.abs(line_flow_complex(net, V)),
        delta_theta=float(np.angle(V[a]) - np.angle(V[b])),
        timestamp=t,
        monitored_idx=(a, b),
    )


def complex_voltage_gap(m: Measurement) -> float:
    """|V_a - V_b| of the monitored pair, from magnitudes and the angle gap."""
    a, b = m.monitored_idx
    return float(abs(m.v[a] * np.exp(1j * m.delta_theta) - m.v[b]))


# ---------------------------------------------------------------------------
# Newton-Raphson power flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NewtonPlan:
    """What the Newton power flow and its sensitivity need of one topology.

    Built once per model (`NetworkModel.newton_plan`), every array read-only.
    The mismatch rows are [P[ang_idx]; Q[mag_idx]], the unknowns
    [theta[ang_idx]; |V|[mag_idx]] and the controller inputs u = [p set-points;
    v set-points] per generator. Y's nonzeros are listed row by row, the
    diagonal always included; `pf_jacobian` scatters their injection partials
    into [J | dF/du] at `jac_dst`.
    """

    Y: np.ndarray
    ang_idx: np.ndarray  # PV and PQ buses: angle unknowns and P rows
    mag_idx: np.ndarray  # PQ buses: magnitude unknowns and Q rows
    slack: int
    load: np.ndarray  # complex bus loads
    rows: np.ndarray  # Y's nonzero pattern and values
    cols: np.ndarray
    y_nz: np.ndarray
    row_starts: np.ndarray  # first nonzero of each row
    diag: np.ndarray  # each bus's diagonal among the nonzeros
    mismatch_idx: np.ndarray  # [P[ang_idx]; Q[mag_idx]] in S viewed as real pairs
    jac_src: np.ndarray  # entries of the stacked partials, viewed as real pairs
    jac_dst: np.ndarray  # and their flat positions in [J | dF/du]
    p_set_dst: np.ndarray  # flat positions of the -1 of each non-slack p set-point
    jac_shape: tuple[int, int]
    # for the sensitivity, rows of the bus state stacked as [theta; |V|]:
    state_rows: np.ndarray  # the unknowns'
    v_set_rows: np.ndarray  # the magnitude each v set-point pins
    line_ends: np.ndarray  # (theta_f, theta_t, |V|_f, |V|_t) of each line


def _newton_plan(net: NetworkModel) -> NewtonPlan:
    n, n_gen = net.n_bus, net.n_gen
    gen_bus = net.gen_bus_indices
    kinds = np.array([b.kind for b in net.buses])
    pv, pq = np.flatnonzero(kinds == PV), np.flatnonzero(kinds == PQ)
    ang_idx, mag_idx = np.concatenate([pv, pq]), pq
    n_ang = len(ang_idx)
    n_unk = n_ang + len(mag_idx)
    width = n_unk + 2 * n_gen

    Y = build_ybus(net)
    pattern = Y != 0
    pattern.flat[::n + 1] = True
    rows, cols = np.nonzero(pattern)
    nnz = len(rows)
    # each bus's P row and angle column, and its Q row and magnitude column,
    # in [J | dF/du]; -1 where the bus has none
    p_at, q_at = np.full(n, -1), np.full(n, -1)
    p_at[ang_idx] = np.arange(n_ang)
    q_at[mag_idx] = np.arange(n_ang, n_unk)
    # nonzero k = (i, j) has a partial in theta_j and one in |V|_j, and the
    # v set-point of a generator at bus j takes that |V|_j partial too; the
    # partials sit in dS viewed as real pairs: [theta: re, im | |V|: re, im]
    k_set, g_set = np.nonzero(cols[:, None] == gen_bus)
    k = np.concatenate([np.arange(nnz), np.arange(nnz), k_set])
    col = np.concatenate([p_at[cols], q_at[cols], n_unk + n_gen + g_set])
    re = 2 * k
    re[nnz:] += 2 * nnz
    # the P row of bus i takes the real part, its Q row the imaginary part
    row = np.concatenate([p_at[rows[k]], q_at[rows[k]]])
    col, src = np.concatenate([col, col]), np.concatenate([re, re + 1])
    keep = (row >= 0) & (col >= 0)
    src, dst = src[keep], (row * width + col)[keep]
    p_gens = np.flatnonzero(p_at[gen_bus] >= 0)  # the slack's P is no input
    f, t = net.branches[:2]

    arrays = dict(
        Y=Y, ang_idx=ang_idx, mag_idx=mag_idx,
        load=np.array([complex(b.load_p, b.load_q) for b in net.buses]),
        rows=rows, cols=cols, y_nz=Y[rows, cols],
        row_starts=np.searchsorted(rows, np.arange(n)),
        diag=np.flatnonzero(rows == cols),
        mismatch_idx=np.concatenate([2 * ang_idx, 2 * mag_idx + 1]),
        jac_src=src, jac_dst=dst,
        p_set_dst=p_at[gen_bus[p_gens]] * width + n_unk + p_gens,
        state_rows=np.concatenate([ang_idx, n + mag_idx]),
        v_set_rows=n + gen_bus,
        line_ends=np.stack([f, t, n + f, n + t]),
    )
    return NewtonPlan(slack=net.slack_index, jac_shape=(n_unk, width),
                      **{name: _read_only(a) for name, a in arrays.items()})


def pf_jacobian(plan: NewtonPlan, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton Jacobian of the polar mismatch F = [P[ang_idx]; Q[mag_idx]] at V.

    Returns J = dF/d[theta[ang_idx]; |V|[mag_idx]] and dF/du, the partials in
    the controller inputs u = [p set-points; v set-points], as two column
    blocks of one array. A v set-point is the magnitude at its generator's
    bus; a p set-point enters its bus's P row with -1, the slack's not at all.
    The complex injection partials are MATPOWER's (Zimmerman et al., IEEE
    TPWRS 2011), evaluated on Y's nonzeros only: with M_k = V_i conj(Y_k V_j),
    dS/dtheta = j (diag S - M) and dS/d|V| = (M + diag S) / |V_j|.
    """
    cols = plan.cols
    M = V[plan.rows] * np.conj(plan.y_nz * V[cols])
    S = np.add.reduceat(M, plan.row_starts)
    dS = np.empty((2, len(M)), dtype=complex)
    np.multiply(M, -1j, out=dS[0])
    dS[0, plan.diag] += 1j * S
    dS[1] = M
    dS[1, plan.diag] += S
    dS[1] /= np.abs(V[cols])
    A = np.zeros(plan.jac_shape)
    flat = A.reshape(-1)
    flat[plan.jac_dst] = dS.view(float).reshape(-1)[plan.jac_src]
    flat[plan.p_set_dst] = -1.0
    n_unk = plan.jac_shape[0]
    return A[:, :n_unk], A[:, n_unk:]


def specified_injections(
    net: NetworkModel, gen_p: Sequence[float], load: Optional[np.ndarray] = None
) -> np.ndarray:
    """Scheduled net complex injection per bus (generation minus load).

    `load`, complex and ordered like the buses, replaces the buses' own loads.
    """
    if load is None:
        load = net.newton_plan.load
    elif np.shape(load) != (net.n_bus,):
        raise GridDataError("load vector must be dimensioned to the buses")
    S = -np.asarray(load, dtype=complex)
    np.add.at(S.real, net.gen_bus_indices, np.asarray(gen_p, dtype=float))
    return S


def _positive_magnitudes(vm: np.ndarray) -> bool:
    """Whether every voltage magnitude is finite and > 0, as `pf_jacobian`,
    which divides by them, needs."""
    return bool(0 < vm.min() and vm.max() < np.inf)  # False on NaN


def solve_power_flow(
    net: NetworkModel,
    gen_p: Sequence[float],
    gen_v: Sequence[float],
    warm_start: Optional[PowerFlowSolution] = None,
    load: Optional[np.ndarray] = None,
) -> PowerFlowSolution:
    """Newton-Raphson AC power flow with polar mismatch equations.

    gen_p / gen_v are ordered like net.generators. The slack generator's
    gen_p entry is ignored; its gen_v entry pins the slack magnitude.
    `load` replaces the bus loads (see `specified_injections`). A start
    point whose angles are not finite, or whose magnitudes (set-points
    included) are not finite and > 0, or a mismatch that is not finite, ends
    the iteration at once.
    """
    if len(gen_p) != net.n_gen or len(gen_v) != net.n_gen:
        raise GridDataError("gen_p/gen_v must be dimensioned to the generators")
    plan = net.newton_plan
    n = net.n_bus
    if warm_start is None:
        vm, va = np.ones(n), np.zeros(n)
    elif warm_start.v.shape == warm_start.theta.shape == (n,):
        vm, va = warm_start.v.copy(), warm_start.theta.copy()
    else:
        raise GridDataError("warm start dimension does not match network")
    vm[net.gen_bus_indices] = gen_v
    if not (_positive_magnitudes(vm) and np.isfinite(va).all()):
        raise PowerFlowDivergenceError(math.nan, 0)
    va -= va[plan.slack]
    S_spec = specified_injections(net, gen_p, load)
    ang_idx, mag_idx = plan.ang_idx, plan.mag_idx
    n_ang = len(ang_idx)

    for it in range(_PF_MAX_ITER + 1):
        V = vm * np.exp(1j * va)
        S = V * np.conj(plan.Y @ V)
        mism = (S - S_spec).view(float)[plan.mismatch_idx]
        residual = float(np.abs(mism).max()) if mism.size else 0.0
        if residual <= _PF_TOL:
            return PowerFlowSolution(
                v=vm, theta=va, p_inj=S.real, q_inj=S.imag,
                residual=residual, iterations=it,
            )
        if it == _PF_MAX_ITER or not math.isfinite(residual):
            break
        J, _ = pf_jacobian(plan, V)
        try:
            dx = np.linalg.solve(J, -mism)
        except np.linalg.LinAlgError:
            raise PowerFlowDivergenceError(residual, it) from None
        va[ang_idx] += dx[:n_ang]
        vm[mag_idx] += dx[n_ang:]
    raise PowerFlowDivergenceError(residual, it)

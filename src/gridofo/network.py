"""Static grid model, admittance matrix, Newton-Raphson AC power flow.

All quantities are in per-unit on the system base. Line flows are reported
as apparent-power magnitudes at the from-end; their lower bound is zero by
construction, so flow limits are one-sided caps.

A line enters every network computation through `NetworkModel.branches`:
from/to bus indices and series/shunt admittances, zero for a line out of
service. The Y-bus, the line flows and their partials (in `sensitivity`)
are vectorized over those arrays, and `pf_jacobian` is the one Newton
Jacobian, shared by the power flow and the sensitivity. A power flow takes
the buses' loads, or a `load` vector that replaces them, so a caller whose
loads change but whose topology does not keeps one model.
"""

from __future__ import annotations

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

def pf_jacobian(Y: np.ndarray, V: np.ndarray, ang_idx: np.ndarray,
                mag_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton Jacobian of the polar mismatch [P[ang_idx]; Q[mag_idx]].

    Returns J, the partials of the mismatch in [theta[ang_idx]; |V|[mag_idx]],
    and dF_dVm, the partials of the same mismatch rows in every bus voltage
    magnitude (shape (len(J), n_bus)), whose columns at regulated buses are
    the voltage set-point partials. The complex injection partials are
    MATPOWER's dense formulas (Zimmerman et al., IEEE TPWRS 2011), broadcast.
    """
    I = Y @ V
    v_unit = V / np.abs(V)
    dS_dVa = 1j * V[:, None] * np.conj(np.diag(I) - Y * V)
    dS_dVm = V[:, None] * np.conj(Y * v_unit) + np.diag(np.conj(I) * v_unit)
    dF_dVa, dF_dVm = (np.vstack([d[ang_idx].real, d[mag_idx].imag])
                      for d in (dS_dVa, dS_dVm))
    return np.hstack([dF_dVa[:, ang_idx], dF_dVm[:, mag_idx]]), dF_dVm


def _newton_indices(net: NetworkModel) -> tuple[np.ndarray, np.ndarray]:
    """Buses whose angle (PV and PQ) and whose magnitude (PQ) are unknowns."""
    kinds = np.array([b.kind for b in net.buses])
    pv, pq = np.flatnonzero(kinds == PV), np.flatnonzero(kinds == PQ)
    return np.concatenate([pv, pq]), pq


def specified_injections(
    net: NetworkModel, gen_p: Sequence[float], load: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Scheduled net P and Q injection per bus (generation minus load).

    `load`, complex and ordered like the buses, replaces the buses' own loads.
    """
    if load is None:
        load = np.array([complex(b.load_p, b.load_q) for b in net.buses])
    elif np.shape(load) != (net.n_bus,):
        raise GridDataError("load vector must be dimensioned to the buses")
    P, Q = -np.real(load), -np.imag(load)
    np.add.at(P, net.gen_bus_indices, np.asarray(gen_p, dtype=float))
    return P, Q


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
    `load` replaces the bus loads (see `specified_injections`).
    """
    if len(gen_p) != net.n_gen or len(gen_v) != net.n_gen:
        raise GridDataError("gen_p/gen_v must be dimensioned to the generators")
    n = net.n_bus
    Y = build_ybus(net)
    ang_idx, mag_idx = _newton_indices(net)

    vm = np.ones(n)
    va = np.zeros(n)
    if warm_start is not None:
        vm = warm_start.v.copy()
        va = warm_start.theta.copy()
    vm[net.gen_bus_indices] = gen_v
    va -= va[net.slack_index]

    P_spec, Q_spec = specified_injections(net, gen_p, load)

    residual = np.inf
    for it in range(_PF_MAX_ITER + 1):
        V = vm * np.exp(1j * va)
        S = V * np.conj(Y @ V)
        dP = S.real - P_spec
        dQ = S.imag - Q_spec
        mism = np.concatenate([dP[ang_idx], dQ[mag_idx]])
        residual = float(np.max(np.abs(mism))) if mism.size else 0.0
        if residual <= _PF_TOL:
            return PowerFlowSolution(
                v=vm, theta=va, p_inj=S.real, q_inj=S.imag,
                residual=residual, iterations=it,
            )
        if it == _PF_MAX_ITER:
            break
        J, _ = pf_jacobian(Y, V, ang_idx, mag_idx)
        try:
            dx = np.linalg.solve(J, -mism)
        except np.linalg.LinAlgError:
            raise PowerFlowDivergenceError(residual, it) from None
        va[ang_idx] += dx[: len(ang_idx)]
        vm[mag_idx] += dx[len(ang_idx):]
    raise PowerFlowDivergenceError(residual, _PF_MAX_ITER)

"""Governor, exciter, power system stabilizer and AGC as discrete blocks.

Every block is realized from first-order stages (one scalar state per pole)
advanced with the trapezoidal rule, inputs frozen over the step. Limited
stages use clamping anti-windup: the limited state itself is clipped, so it
does not wind up while the output saturates.

Each block is stated once, split at its clamps into affine pieces
(`_valve` and `_turbine`, `_pss`, `_exciter`; `agc_step` has no clamp and is
affine whole): a step function is its pieces plus its clamps. The step
functions are pure: they take a state, return (new_state, output), and
broadcast over machine fleets when the parameters are arrays. The simulator
advances all four blocks of a fleet with one `ControlKernel`, built once per
step size by evaluating the same pieces on coefficient matrices: a step is
two affine maps of one stacked state vector, the pieces before the clamps
and the pieces after them, each followed by its clamps.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import GridDataError


def _trapz_lag(x, u, T, dt):
    """One trapezoidal step of x' = (u - x)/T with u frozen over the step:
    x+ = a*x + b*u with k = dt/(2T), a = (1 - k)/(1 + k), b = 2k/(1 + k)."""
    k = dt / (2.0 * T)
    return (1.0 - k) / (1.0 + k) * x + 2.0 * k / (1.0 + k) * u


def _clip(x, lo, hi):
    # cheaper than np.clip on fleet-sized arrays
    return np.minimum(np.maximum(x, lo), hi)


def _leadlag_out(x, u, T_num, T_den):
    """Output of (1 + s*T_num)/(1 + s*T_den) realized as lag state + feedthrough."""
    c = T_num / T_den
    return c * u + (1.0 - c) * x


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GovernorParams:
    T_1: float
    T_2: float
    T_3: float
    R_g: float
    D_t: float = 0.0
    V_min: float = 0.0
    V_max: float = 15.0

    def __post_init__(self):
        if self.T_1 <= 0 or self.T_3 <= 0:
            raise GridDataError("governor: T_1 and T_3 must be > 0")
        if self.R_g <= 0:
            raise GridDataError("governor: droop R_g must be > 0")
        if not self.V_min < self.V_max:
            raise GridDataError("governor: V_min must be below V_max")


@dataclass(frozen=True)
class ExciterParams:
    K_ex: float
    T_a: float
    T_b: float
    T_e: float
    E_min: float = 0.0
    E_max: float = 8.0

    def __post_init__(self):
        if self.T_b <= 0 or self.T_e <= 0:
            raise GridDataError("exciter: T_b and T_e must be > 0")
        if self.K_ex <= 0:
            raise GridDataError("exciter: K_ex must be > 0")
        if not self.E_min < self.E_max:
            raise GridDataError("exciter: E_min must be below E_max")


@dataclass(frozen=True)
class PssParams:
    K_PSS: float
    T: float
    T_1: float
    T_2: float
    T_3: float
    T_4: float
    H_lim: float

    def __post_init__(self):
        if self.T <= 0 or self.T_3 <= 0 or self.T_4 <= 0:
            raise GridDataError("pss: T, T_3 and T_4 must be > 0")
        if self.H_lim <= 0:
            raise GridDataError("pss: H_lim must be > 0")


@dataclass(frozen=True)
class AgcParams:
    lam: float
    K_p: float
    K_i: float
    beta: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(self.beta))
        b = np.asarray(self.beta, dtype=float)
        if np.any(b < 0):
            raise GridDataError("agc: participation factors must be >= 0")
        if abs(b.sum() - 1.0) > 1e-12:
            raise GridDataError("agc: participation factors must sum to 1")


class _ParamSet:
    """Stacks per-machine parameter dataclasses into attribute arrays."""

    cls = None

    def __init__(self, params: Sequence):
        self.params = tuple(params)
        self.n = len(self.params)
        for f in fields(self.cls):
            setattr(self, f.name, np.array([getattr(p, f.name) for p in self.params]))


class GovernorSet(_ParamSet):
    cls = GovernorParams


class ExciterSet(_ParamSet):
    cls = ExciterParams


class PssSet(_ParamSet):
    cls = PssParams


# ---------------------------------------------------------------------------
# Governor: droop -> limited valve lag -> turbine lead-lag, minus D_t path
# ---------------------------------------------------------------------------

@dataclass
class GovernorState:
    x_valve: np.ndarray
    x_turb: np.ndarray


def governor_init(p, p_m0) -> GovernorState:
    x = _clip(np.asarray(p_m0, dtype=float), p.V_min, p.V_max)
    return GovernorState(x_valve=x.copy(), x_turb=x.copy())


def _valve(p, x_valve, delta_omega, p_m0, dt):
    """The new valve state, before its [V_min, V_max] clamp."""
    return _trapz_lag(x_valve, p_m0 - delta_omega / p.R_g, p.T_1, dt)


def _turbine(p, x_turb, x_valve, delta_omega, dt):
    """The new turbine state and the governor output, from the clamped valve."""
    x_turb = _trapz_lag(x_turb, x_valve, p.T_3, dt)
    return x_turb, _leadlag_out(x_turb, x_valve, p.T_2, p.T_3) - p.D_t * delta_omega


def governor_step(p, s: GovernorState, delta_omega, p_m0, dt):
    x_valve = _clip(_valve(p, s.x_valve, delta_omega, p_m0, dt), p.V_min, p.V_max)
    x_turb, out = _turbine(p, s.x_turb, x_valve, delta_omega, dt)
    return GovernorState(x_valve, x_turb), out


# ---------------------------------------------------------------------------
# Exciter: (1+sTa)/(1+sTb) then limited K_ex/(1+sTe)
# ---------------------------------------------------------------------------

@dataclass
class ExciterState:
    x_ll: np.ndarray
    x_out: np.ndarray


def exciter_init(p, E_f0) -> ExciterState:
    e0 = np.asarray(E_f0, dtype=float) / p.K_ex
    return ExciterState(x_ll=e0.copy(), x_out=_clip(E_f0, p.E_min, p.E_max))


def _exciter(p, s: ExciterState, delta_v, v_pss, E_f0, dt) -> ExciterState:
    """The new states, x_out before its [E_min, E_max] clamp."""
    u = E_f0 / p.K_ex + delta_v + v_pss
    x_ll = _trapz_lag(s.x_ll, u, p.T_b, dt)
    mid = _leadlag_out(x_ll, u, p.T_a, p.T_b)
    return ExciterState(x_ll, _trapz_lag(s.x_out, p.K_ex * mid, p.T_e, dt))


def exciter_step(p, s: ExciterState, delta_v, v_pss, E_f0, dt):
    s = _exciter(p, s, delta_v, v_pss, E_f0, dt)
    x_out = _clip(s.x_out, p.E_min, p.E_max)
    return ExciterState(s.x_ll, x_out), x_out


# ---------------------------------------------------------------------------
# PSS: washout s*K/(1+sT), two lead-lags, output clip
# ---------------------------------------------------------------------------

@dataclass
class PssState:
    x_w: np.ndarray
    x_1: np.ndarray
    x_2: np.ndarray


def pss_init(p, n: int) -> PssState:
    z = np.zeros(n)
    return PssState(z.copy(), z.copy(), z.copy())


def _pss(p, s: PssState, delta_omega, dt):
    """The new states and the output, before its +-H_lim clamp."""
    x_w = _trapz_lag(s.x_w, delta_omega, p.T, dt)
    w_out = p.K_PSS * (delta_omega - x_w) / p.T
    x_1 = _trapz_lag(s.x_1, w_out, p.T_3, dt)
    o_1 = _leadlag_out(x_1, w_out, p.T_1, p.T_3)
    x_2 = _trapz_lag(s.x_2, o_1, p.T_4, dt)
    return PssState(x_w, x_1, x_2), _leadlag_out(x_2, o_1, p.T_2, p.T_4)


def pss_step(p, s: PssState, delta_omega, dt):
    s, out = _pss(p, s, delta_omega, dt)
    return s, _clip(out, -p.H_lim, p.H_lim)


# ---------------------------------------------------------------------------
# AGC: -lambda gain, PI, participation distribution
# ---------------------------------------------------------------------------

@dataclass
class AgcState:
    x_i: float = 0.0


def inertia_weights(H, S) -> np.ndarray:
    """Normalized H*S weights of the fleet's average frequency (sum to 1)."""
    w = np.asarray(H, dtype=float) * np.asarray(S, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise GridDataError("inertia_weights: empty machine set")
    total = w.sum()
    if not total > 0:
        raise GridDataError("inertia_weights: total H*S must be positive")
    return w / total


def average_frequency(delta_omegas, weights) -> float:
    """Inertia-weighted mean speed deviation; `weights` from inertia_weights."""
    return float(np.dot(delta_omegas, weights))


def agc_step(p: AgcParams, s: AgcState, avg_delta_omega: float, dt: float):
    e = -p.lam * avg_delta_omega
    x_i = s.x_i + dt * p.K_i * e  # pure integrator; trapezoid == Euler for frozen input
    out = p.K_p * e + x_i
    return AgcState(x_i), np.asarray(p.beta) * out


# ---------------------------------------------------------------------------
# Fused kernel: the four blocks of a fleet as two affine maps per step
# ---------------------------------------------------------------------------

def stack_states(gov: GovernorState, pss: PssState, exc: ExciterState,
                 agc: AgcState) -> np.ndarray:
    """The one state vector ControlKernel advances.

    Layout: [x_valve, x_w, x_1, x_2, x_i, x_turb, x_ll, x_out], n entries
    each except the AGC integrator x_i; the first five are stage 1's states.
    """
    return np.concatenate((gov.x_valve, pss.x_w, pss.x_1, pss.x_2, [agc.x_i],
                           gov.x_turb, exc.x_ll, exc.x_out))


class ControlKernel:
    """governor_step, pss_step, exciter_step and agc_step of a fleet, fused.

    Built for one step size `dt` from the blocks' pieces, and from the
    stacked state `state` (see stack_states), which it copies. The kernel
    owns one work vector w = [v_pss, stacked state, delta_omega, delta_v, 1];
    `state`, `delta_omega` and `delta_v` are views of its slots. The caller
    writes a step's inputs into `delta_omega` and `delta_v`, then `step`
    advances `state` in place: stage 1 maps w through the pieces before the
    clamps and clips the valve and the PSS output; stage 2 maps w, now
    holding those clipped values, through the pieces after them and clips
    E_f.
    """

    def __init__(self, gov: GovernorSet, pss: PssSet, exc: ExciterSet,
                 agc: AgcParams, weights, p_m0, E_f0, dt: float, state):
        if not (np.isfinite(dt) and dt > 0):
            raise GridDataError(f"control kernel: dt must be finite and > 0, got {dt!r}")
        self.dt = dt
        n = gov.n
        # slots of w; stage 1 writes [V_PSS, X_TURB), stage 2 [X_TURB, DW)
        V_PSS, X_VALVE, X_W, X_1, X_2, X_I = 0, n, 2 * n, 3 * n, 4 * n, 5 * n
        X_TURB, X_LL, X_OUT = 5 * n + 1, 6 * n + 1, 7 * n + 1
        DW, DV, ONE = 8 * n + 1, 9 * n + 1, 10 * n + 1
        # every quantity below is its (len(w), n) matrix of coefficients on
        # w, column j for machine j; the blocks' pieces broadcast over it
        basis = np.eye(ONE + 1)

        def slot(i, m=n):
            return basis[:, i:i + m]

        one, dw, dv = slot(ONE, 1), slot(DW), slot(DV)
        avg_dw = dw @ np.asarray(weights, dtype=float)[:, None]
        agc_now = AgcState(slot(X_I, 1))

        # stage 1, the pieces before the clamps: w holds the previous states
        x_valve = _valve(gov, slot(X_VALVE), dw, one * p_m0, dt)
        s_pss, v_pss = _pss(pss, PssState(slot(X_W), slot(X_1), slot(X_2)), dw, dt)
        s_agc, _ = agc_step(agc, agc_now, avg_dw, dt)
        self._A1 = np.hstack((v_pss, x_valve, s_pss.x_w, s_pss.x_1, s_pss.x_2,
                              s_agc.x_i)).T.copy()

        # stage 2, the pieces after them: the stage-1 slots of w now hold the
        # clamped new values; AGC's output at its new state is agc_step at dt 0
        x_turb, p_gov = _turbine(gov, slot(X_TURB), slot(X_VALVE), dw, dt)
        s_exc = _exciter(exc, ExciterState(slot(X_LL), slot(X_OUT)), dv, slot(V_PSS),
                         one * E_f0, dt)
        _, p_agc = agc_step(agc, agc_now, avg_dw, 0.0)
        self._A2 = np.hstack((x_turb, s_exc.x_ll, s_exc.x_out, p_gov + p_agc)).T.copy()

        self._lo1 = np.concatenate((-pss.H_lim, gov.V_min))
        self._hi1 = np.concatenate((pss.H_lim, gov.V_max))
        self._lo2, self._hi2 = exc.E_min, exc.E_max

        w = self._w = np.zeros(ONE + 1)
        w[ONE] = 1.0
        self.state = w[X_VALVE:DW]
        self.state[:] = state
        self.delta_omega = w[DW:DV]
        self.delta_v = w[DV:ONE]
        # each map's product, and the slots of w it is copied back to
        self._y1, self._w1 = np.empty(X_TURB), w[:X_TURB]
        self._lim1 = self._y1[:X_VALVE + n]
        y2 = self._y2 = np.empty(4 * n)  # [x_turb, x_ll, x_out, p_gov + p_agc]
        self._y2_states, self._w2 = y2[:3 * n], w[X_TURB:DW]
        self._e_f, self._p = y2[2 * n:3 * n], y2[3 * n:]

    def step(self):
        """Advance `state` by one step, the inputs in `delta_omega` and
        `delta_v` frozen over the step as in the reference blocks.

        Returns (p_gov + p_agc, E_f), views of a buffer the next step
        overwrites.
        """
        w, lim, e_f = self._w, self._lim1, self._e_f
        np.dot(self._A1, w, out=self._y1)
        np.minimum(np.maximum(lim, self._lo1, out=lim), self._hi1, out=lim)
        self._w1[:] = self._y1
        np.dot(self._A2, w, out=self._y2)
        np.minimum(np.maximum(e_f, self._lo2, out=e_f), self._hi2, out=e_f)
        self._w2[:] = self._y2_states
        return self._p, e_f

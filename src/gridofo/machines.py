"""Sixth-order synchronous machine model and its network interface.

The dynamic state per machine is [delta_omega, delta, E_q', E_d', E_q'', E_d''].
Functions operate elementwise, so they accept either scalar parameters with a
single state or stacked parameter/state arrays for a whole machine fleet.

Frame convention: a network phasor F maps into the rotor frame as
``F * exp(-1j*(delta - pi/2))`` whose real and imaginary parts are the d- and
q-components. With this choice the stator current of a machine, as a network
phasor, is ``y_int * (internal_emf(state) - v_bus)`` with
``y_int = 1 / (R + 1j*X_d'')``, so the network sees the machine as a Norton
source ``y_int * internal_emf(state)`` behind the admittance ``y_int``.

The six ODE rows are written once, in `linear_rhs`, which is linear in the
state, the stator currents, the torque p_m / omega - p_e, omega and E_f.
`derivatives_given_currents` checks the speed and forms the torque; the
simulator's stage matrix is `linear_rhs` evaluated at unit inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controls import _ParamSet
from .errors import GridDataError, MachineInitError, SimulationBlowupError

# state vector layout
OMEGA, DELTA, EQ_P, ED_P, EQ_PP, ED_PP = range(6)
N_STATES = 6


@dataclass(frozen=True)
class MachineParams:
    """Per-unit machine constants on the system base; H in seconds."""

    name: str
    H: float
    D: float
    R: float
    X_d: float
    X_d_p: float
    X_d_pp: float
    X_q: float
    X_q_p: float
    X_q_pp: float
    T_d0_p: float
    T_q0_p: float
    T_d0_pp: float
    T_q0_pp: float
    S: float

    def __post_init__(self):
        positive = ("H", "X_d", "X_d_p", "X_d_pp", "X_q", "X_q_p", "X_q_pp",
                    "T_d0_p", "T_q0_p", "T_d0_pp", "T_q0_pp", "S")
        for name in positive:
            if getattr(self, name) <= 0:
                raise GridDataError(f"machine {self.name}: {name} must be > 0")
        if self.D < 0 or self.R < 0:
            raise GridDataError(f"machine {self.name}: D and R must be >= 0")
        if not (self.X_d >= self.X_d_p >= self.X_d_pp):
            raise GridDataError(f"machine {self.name}: need X_d >= X_d' >= X_d''")
        if not (self.X_q >= self.X_q_p >= self.X_q_pp):
            raise GridDataError(f"machine {self.name}: need X_q >= X_q' >= X_q''")


class MachineSet(_ParamSet):
    """Stacked parameter arrays for a fleet; same attribute names as MachineParams."""

    cls = MachineParams

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.params]


def rotor_rotation(delta):
    """Phasor-to-rotor-frame rotation factor exp(-1j*(delta - pi/2))."""
    return np.exp(-1j * (np.asarray(delta) - np.pi / 2))


def to_dq(phasor, delta):
    """Split a network phasor into (d, q) components in the rotor frame."""
    w = phasor * rotor_rotation(delta)
    return np.real(w), np.imag(w)


def dq_currents(p, state, v_bus):
    """Stator currents from the subtransient voltages and the bus voltage.

    Solves the 2x2 stator system
        E_d'' - v_d =  R*I_d - X_d''*I_q
        E_q'' - v_q =  R*I_q + X_d''*I_d
    which is nonsingular whenever R^2 + X_d''^2 > 0.
    """
    state = np.asarray(state)
    v_d, v_q = to_dq(v_bus, state[..., DELTA])
    a = state[..., ED_PP] - v_d
    b = state[..., EQ_PP] - v_q
    R, X = p.R, p.X_d_pp
    det = R * R + X * X
    if np.any(det == 0):
        raise GridDataError("singular stator system: R and X_d'' both zero")
    i_d = (R * a + X * b) / det
    i_q = (-X * a + R * b) / det
    return i_d, i_q


def electrical_power(state, i_d, i_q):
    """Air-gap electrical power p_e = E_d''*I_d + E_q''*I_q."""
    state = np.asarray(state)
    return state[..., ED_PP] * i_d + state[..., EQ_PP] * i_q


def internal_emf(state):
    """Subtransient EMF as a network phasor, (E_d'' + j E_q'') rotated to grid frame."""
    state = np.asarray(state)
    return (state[..., EQ_PP] - 1j * state[..., ED_PP]) * np.exp(1j * state[..., DELTA])


def machine_derivatives(p, state, p_m, E_f, v_bus, omega_base: float):
    """Right-hand side of the six machine ODEs.

    delta is integrated in radians, so the speed deviation (in p.u.) is
    scaled by the base angular frequency in the angle equation.
    """
    state = np.asarray(state)
    i_d, i_q = dq_currents(p, state, v_bus)
    return derivatives_given_currents(p, state, p_m, E_f, i_d, i_q, omega_base)


def derivatives_given_currents(p, state, p_m, E_f, i_d, i_q, omega_base: float):
    """Machine ODE right-hand side with stator currents already known."""
    state = np.asarray(state)
    omega = 1.0 + state[..., OMEGA]
    if not np.all(omega > 0):
        raise SimulationBlowupError("rotor speed reached zero or is not finite")
    torque = p_m / omega - electrical_power(state, i_d, i_q)
    return linear_rhs(p, state, i_d, i_q, torque, omega, E_f, omega_base)


def linear_rhs(p, state, i_d, i_q, torque, omega, E_f, omega_base: float):
    """The six machine ODEs, given the stator currents, the accelerating
    torque p_m / omega - p_e and the speed omega = 1 + delta_omega.

    Jointly linear in state, i_d, i_q, torque, omega and E_f, so that
    evaluating it at unit inputs gives its coefficients
    (`simulator._stage_matrix`).
    """
    state = np.asarray(state)
    d = np.empty_like(state)
    d[..., OMEGA] = (torque - p.D * omega) / (2.0 * p.H)
    d[..., DELTA] = omega_base * state[..., OMEGA]
    d[..., EQ_P] = (E_f - state[..., EQ_P] - i_d * (p.X_d - p.X_d_p)) / p.T_d0_p
    d[..., ED_P] = (-state[..., ED_P] + i_q * (p.X_q - p.X_q_p)) / p.T_q0_p
    d[..., EQ_PP] = (state[..., EQ_P] - state[..., EQ_PP]
                     - i_d * (p.X_d_p - p.X_d_pp)) / p.T_d0_pp
    d[..., ED_PP] = (state[..., ED_P] - state[..., ED_PP]
                     + i_q * (p.X_q_p - p.X_q_pp)) / p.T_q0_pp
    return d


def init_from_power_flow(p, v_terminal, s_terminal, omega_base: float = 2 * np.pi * 60):
    """Back-solve the machine equilibrium from terminal voltage and power.

    Returns (state, p_m0, E_f0) such that machine_derivatives vanishes and the
    machine injects s_terminal into the bus held at v_terminal.
    """
    v_terminal = np.asarray(v_terminal, dtype=complex)
    s_terminal = np.asarray(s_terminal, dtype=complex)
    i_term = np.conj(s_terminal / v_terminal)

    # The EMF behind (R + jX_q) lies on the q-axis; its angle is the rotor angle.
    e_q_axis = v_terminal + (p.R + 1j * p.X_q) * i_term
    delta = np.angle(e_q_axis)

    rot = rotor_rotation(delta)
    v_w = v_terminal * rot
    i_w = i_term * rot
    v_d, v_q = np.real(v_w), np.imag(v_w)
    i_d, i_q = np.real(i_w), np.imag(i_w)

    e_d_pp = v_d + p.R * i_d - p.X_q_pp * i_q
    e_q_pp = v_q + p.R * i_q + p.X_d_pp * i_d
    e_q_p = e_q_pp + i_d * (p.X_d_p - p.X_d_pp)
    e_d_p = e_d_pp - i_q * (p.X_q_p - p.X_q_pp)
    E_f0 = e_q_p + i_d * (p.X_d - p.X_d_p)

    p_e = e_d_pp * i_d + e_q_pp * i_q
    p_m0 = p_e + p.D  # omega = 1 at equilibrium

    state = np.stack([np.zeros_like(p_e), delta, e_q_p, e_d_p, e_q_pp, e_d_pp], axis=-1)
    resid = machine_derivatives(p, state, p_m0, E_f0, v_terminal, omega_base)
    if not np.max(np.abs(resid)) <= 1e-9:
        raise MachineInitError(
            f"equilibrium residual {np.max(np.abs(resid)):.3e} exceeds 1e-9"
        )
    return state, p_m0, E_f0

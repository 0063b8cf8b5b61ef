"""Machine model: frame maps, stator solve, equilibrium back-solve, ODEs."""

import numpy as np
import pytest

from gridofo.errors import GridDataError
from gridofo.machines import (
    DELTA,
    ED_P,
    ED_PP,
    EQ_P,
    EQ_PP,
    OMEGA,
    MachineParams,
    MachineSet,
    dq_currents,
    electrical_power,
    init_from_power_flow,
    internal_emf,
    machine_derivatives,
    rotor_rotation,
    to_dq,
)
from gridofo.simulator import _stage_matrix

OMEGA_BASE = 2 * np.pi * 60


def make_machine(**over):
    base = dict(name="T1", H=5.0, D=1.0, R=0.01, X_d=1.8, X_d_p=0.3,
                X_d_pp=0.2, X_q=1.7, X_q_p=0.55, X_q_pp=0.2, T_d0_p=8.0,
                T_q0_p=0.4, T_d0_pp=0.03, T_q0_pp=0.05, S=100.0)
    base.update(over)
    return MachineParams(**base)


class TestFrames:
    def test_rotation_magnitude_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ph = rng.normal() + 1j * rng.normal()
            delta = rng.uniform(-np.pi, np.pi)
            d, q = to_dq(ph, delta)
            assert np.hypot(d, q) == pytest.approx(abs(ph))

    def test_rotation_at_reference(self):
        # delta = pi/2 makes the rotor frame coincide with the network frame
        d, q = to_dq(1.0 + 2.0j, np.pi / 2)
        assert d == pytest.approx(1.0)
        assert q == pytest.approx(2.0)

    def test_roundtrip(self):
        delta = 0.7
        ph = 0.9 * np.exp(0.3j)
        d, q = to_dq(ph, delta)
        back = (d + 1j * q) / rotor_rotation(delta)
        assert back == pytest.approx(ph)


class TestStator:
    def test_two_by_two_inverse(self):
        """dq_currents inverts the stator equations it documents."""
        p = make_machine()
        rng = np.random.default_rng(3)
        for _ in range(25):
            state = np.zeros(6)
            state[DELTA] = rng.uniform(-np.pi, np.pi)
            state[ED_PP] = rng.normal()
            state[EQ_PP] = rng.normal()
            v_bus = rng.normal() + 1j * rng.normal()
            i_d, i_q = dq_currents(p, state, v_bus)
            v_d, v_q = to_dq(v_bus, state[DELTA])
            assert state[ED_PP] - v_d == pytest.approx(
                p.R * i_d - p.X_d_pp * i_q, abs=1e-12)
            assert state[EQ_PP] - v_q == pytest.approx(
                p.R * i_q + p.X_d_pp * i_d, abs=1e-12)

    def test_singular_guard(self):
        with pytest.raises(GridDataError):
            # construct directly: validation forbids X_d_pp = 0, so bypass it
            p = make_machine()
            object.__setattr__(p, "R", 0.0)
            object.__setattr__(p, "X_d_pp", 0.0)
            dq_currents(p, np.zeros(6), 1.0 + 0j)

    def test_norton_equivalence(self):
        """The stator current is y_int * (E'' - v_bus), E'' the internal EMF.

        This is the Norton source y_int * E'' that the simulator injects.
        """
        state = np.zeros(6)
        state[DELTA] = 0.4
        state[ED_PP] = 0.2
        state[EQ_PP] = 1.05
        v_bus = 1.0 * np.exp(0.1j)
        for R in (0.0, 0.003):
            p = make_machine(R=R)
            i_d, i_q = dq_currents(p, state, v_bus)
            i_net = (i_d + 1j * i_q) / rotor_rotation(state[DELTA])
            y_int = 1.0 / (p.R + 1j * p.X_d_pp)
            assert i_net == pytest.approx(
                y_int * (internal_emf(state) - v_bus), abs=1e-12)


class TestDerivatives:
    def test_duplicate_formula(self):
        """Independent transcription of the six ODE right-hand sides."""
        p = make_machine()
        rng = np.random.default_rng(11)
        for _ in range(20):
            st = rng.normal(size=6) * 0.3
            st[OMEGA] = rng.uniform(-0.02, 0.02)
            p_m = rng.uniform(0.0, 1.2)
            E_f = rng.uniform(0.8, 2.5)
            v_bus = (1.0 + 0.1 * rng.normal()) * np.exp(1j * rng.normal() * 0.3)
            got = machine_derivatives(p, st, p_m, E_f, v_bus, OMEGA_BASE)

            i_d, i_q = dq_currents(p, st, v_bus)
            omega = 1.0 + st[OMEGA]
            p_e = st[ED_PP] * i_d + st[EQ_PP] * i_q
            want = np.array([
                (p_m / omega - p_e - p.D * omega) / (2 * p.H),
                OMEGA_BASE * st[OMEGA],
                (E_f - st[EQ_P] - i_d * (p.X_d - p.X_d_p)) / p.T_d0_p,
                (-st[ED_P] + i_q * (p.X_q - p.X_q_p)) / p.T_q0_p,
                (st[EQ_P] - st[EQ_PP] - i_d * (p.X_d_p - p.X_d_pp)) / p.T_d0_pp,
                (st[ED_P] - st[ED_PP] + i_q * (p.X_q_p - p.X_q_pp)) / p.T_q0_pp,
            ])
            np.testing.assert_allclose(got, want, atol=1e-13)

    def test_inertia_scaling(self):
        """Doubling H halves the speed derivative, all else equal."""
        p1 = make_machine(H=5.0)
        p2 = make_machine(H=10.0)
        st = np.array([0.0, 0.3, 1.0, 0.1, 0.95, 0.12])
        d1 = machine_derivatives(p1, st, 0.9, 1.8, 1.0 + 0j, OMEGA_BASE)
        d2 = machine_derivatives(p2, st, 0.9, 1.8, 1.0 + 0j, OMEGA_BASE)
        assert d1[OMEGA] == pytest.approx(2.0 * d2[OMEGA])
        np.testing.assert_allclose(d1[1:], d2[1:])


class TestInitialization:
    def test_equilibrium_residual_zero(self):
        p = make_machine()
        v = 1.02 * np.exp(0.15j)
        s = 0.8 + 0.25j
        state, p_m0, E_f0 = init_from_power_flow(p, v, s, OMEGA_BASE)
        d = machine_derivatives(p, state, p_m0, E_f0, v, OMEGA_BASE)
        assert np.max(np.abs(d)) < 1e-9

    def test_terminal_power_recovered(self):
        p = make_machine()
        v = 1.0 * np.exp(-0.05j)
        s = 0.6 + 0.1j
        state, _, _ = init_from_power_flow(p, v, s, OMEGA_BASE)
        i_d, i_q = dq_currents(p, state, v)
        i_net = (i_d + 1j * i_q) / rotor_rotation(state[DELTA])
        assert v * np.conj(i_net) == pytest.approx(s, abs=1e-10)

    def test_damping_enters_mechanical_power(self):
        """p_m0 = p_e + D at speed 1, so damping torque is pre-compensated."""
        p = make_machine(D=3.0)
        v = 1.0 + 0j
        s = 0.5 + 0.0j
        state, p_m0, _ = init_from_power_flow(p, v, s, OMEGA_BASE)
        i_d, i_q = dq_currents(p, state, v)
        p_e = electrical_power(state, i_d, i_q)
        assert p_m0 == pytest.approx(p_e + 3.0)

    def test_fleet_initialization(self, grid, base_solution):
        net = grid.net
        V = base_solution.v_complex[net.gen_bus_indices]
        load = np.array([b.load_p + 1j * b.load_q for b in net.buses])
        s = (base_solution.p_inj + 1j * base_solution.q_inj
             + load)[net.gen_bus_indices]
        state, p_m0, E_f0 = init_from_power_flow(grid.machines, V, s, OMEGA_BASE)
        d = machine_derivatives(grid.machines, state, p_m0, E_f0, V, OMEGA_BASE)
        assert np.max(np.abs(d)) < 1e-9
        assert np.all(p_m0 > 0)

    def test_emf_consistency(self):
        p = make_machine()
        state = np.array([0.0, 0.3, 1.0, 0.1, 0.95, 0.12])
        e = internal_emf(state)
        d, q = to_dq(e, state[DELTA])
        assert d == pytest.approx(state[ED_PP])
        assert q == pytest.approx(state[EQ_PP])


class TestStageMatrix:
    def test_matches_reference_derivatives(self):
        """The simulator's stage matrix, derived from linear_rhs, reproduces
        machine_derivatives on random states, with each pair of products
        of the stage vector split into two unequal addends."""
        fleet = MachineSet([make_machine(name="A", H=3.0, D=2.0),
                            make_machine(name="B", R=0.0, X_q_pp=0.15),
                            make_machine(name="C", T_q0_pp=0.07)])
        rng = np.random.default_rng(11)
        A = _stage_matrix(fleet, OMEGA_BASE)
        assert A.shape == (18, 18 + 8 * 3 + 1)
        for _ in range(10):
            state = rng.normal(size=(3, 6))
            state[:, OMEGA] *= 0.01
            v = rng.uniform(0.9, 1.1, 3) * np.exp(1j * rng.uniform(-1, 1, 3))
            p_m = rng.uniform(0.2, 1.0, 3)
            E_f = rng.uniform(1.0, 3.0, 3)
            i_d, i_q = dq_currents(fleet, state, v)
            pairs = np.stack([i_d, i_q, electrical_power(state, i_d, i_q)])
            z = np.concatenate([state.ravel(),
                                np.stack([0.3 * pairs, 0.7 * pairs], axis=-1).ravel(),
                                p_m / (1.0 + state[:, OMEGA]), E_f, [1.0]])
            want = machine_derivatives(fleet, state, p_m, E_f, v, OMEGA_BASE)
            np.testing.assert_allclose((A @ z).reshape(3, 6), want,
                                       rtol=1e-12, atol=1e-12)


class TestValidation:
    def test_reactance_ordering_enforced(self):
        with pytest.raises(GridDataError):
            make_machine(X_d_pp=0.4, X_d_p=0.3)

    def test_positive_parameters(self):
        with pytest.raises(GridDataError):
            make_machine(H=0.0)
        with pytest.raises(GridDataError):
            make_machine(D=-1.0)

    def test_machine_set_stacks(self):
        ms = MachineSet([make_machine(name="A", H=3.0),
                         make_machine(name="B", H=7.0)])
        np.testing.assert_array_equal(ms.H, [3.0, 7.0])
        assert ms.names == ["A", "B"]

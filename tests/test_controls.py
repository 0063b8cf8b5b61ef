"""Control blocks against their continuous transfer functions, and the fused
control kernel against the blocks.

The oracle of the blocks is scipy.signal: for piecewise-constant inputs its
step response is computed through the matrix exponential, i.e. exact for the
continuous system, so agreement bounds the discretization error of the
trapezoidal blocks directly. The kernel only regroups the blocks' affine
arithmetic, so it must match them to rounding.
"""

import numpy as np
import pytest
from scipy import signal

from gridofo import machines as mc
from gridofo.controls import (
    AgcParams,
    AgcState,
    ControlKernel,
    ExciterParams,
    ExciterSet,
    GovernorParams,
    GovernorSet,
    PssParams,
    PssSet,
    agc_step,
    average_frequency,
    exciter_init,
    exciter_step,
    governor_init,
    governor_step,
    inertia_weights,
    pss_init,
    pss_step,
    stack_states,
)
from gridofo.dataio import bundled_path, load_scenario
from gridofo.errors import GridDataError
from gridofo.simulator import DynamicSimulation

DT = 1e-3


def continuous_step(num, den, t, amplitude=1.0):
    """Exact step response of num/den at sample times t (t[0] > 0).

    scipy places the zero initial state at T[0], so integration starts at 0
    explicitly and the leading sample is dropped.
    """
    system = signal.TransferFunction(num, den)
    t_full = np.concatenate([[0.0], t])
    _, y = signal.step(system, T=t_full)
    return amplitude * y[1:]


def gov_params(**over):
    base = dict(T_1=0.5, T_2=2.5, T_3=7.5, R_g=0.05, D_t=0.3,
                V_min=-100.0, V_max=100.0)
    base.update(over)
    return GovernorSet([GovernorParams(**base)])


def exc_params(**over):
    base = dict(K_ex=100.0, T_a=1.0, T_b=10.0, T_e=0.1,
                E_min=-100.0, E_max=100.0)
    base.update(over)
    return ExciterSet([ExciterParams(**base)])


def pss_params(**over):
    base = dict(K_PSS=30.0, T=10.0, T_1=0.15, T_2=0.15, T_3=0.05, T_4=0.05,
                H_lim=0.1)
    base.update(over)
    return PssSet([PssParams(**base)])


class TestGovernor:
    def test_step_response_matches_continuous(self):
        """Droop path (1+sT_2)/((1+sT_1)(1+sT_3)) minus the D_t feedthrough."""
        p = gov_params()
        p_m0 = np.array([0.8])
        dw = 0.01
        n = 20000
        state = governor_init(p, p_m0)
        t = np.arange(1, n + 1) * DT
        got = np.empty(n)
        for k in range(n):
            state, out = governor_step(p, state, dw, p_m0, DT)
            got[k] = out[0]

        T_1, T_2, T_3 = 0.5, 2.5, 7.5
        num = [T_2, 1.0]
        den = [T_1 * T_3, T_1 + T_3, 1.0]
        y = continuous_step(num, den, t, amplitude=-dw / 0.05)
        want = 0.8 + y - 0.3 * dw
        assert np.max(np.abs(got - want)) < 1e-4

    def test_droop_steady_state(self):
        """Settled output equals p_m0 - dw/R_g - D_t*dw when limits are off."""
        p = gov_params()
        p_m0 = np.array([0.8])
        dw = 0.004
        state = governor_init(p, p_m0)
        out = None
        for _ in range(200000):
            state, out = governor_step(p, state, dw, p_m0, DT)
        assert out[0] == pytest.approx(0.8 - dw / 0.05 - 0.3 * dw, abs=1e-9)

    def test_valve_limit_clamps_and_recovers(self):
        """Anti-windup: after a deep saturation the valve resumes immediately."""
        p = gov_params(V_max=0.9, V_min=0.0, D_t=0.0)
        p_m0 = np.array([0.8])
        state = governor_init(p, p_m0)
        for _ in range(5000):
            state, out = governor_step(p, state, -0.05, p_m0, DT)  # drive up
        assert state.x_valve[0] == pytest.approx(0.9)
        # reverse the input; the clamped state must move off the limit at once
        state, _ = governor_step(p, state, 0.05, p_m0, DT)
        assert state.x_valve[0] < 0.9

    def test_validation(self):
        with pytest.raises(GridDataError):
            GovernorParams(T_1=0.5, T_2=1.0, T_3=1.0, R_g=0.0)


class TestExciter:
    def test_step_response_matches_continuous(self):
        """K_ex (1+sT_a) / ((1+sT_b)(1+sT_e)) from voltage error to E_f."""
        p = exc_params()
        E_f0 = np.array([2.0])
        dv = 0.01
        n = 20000
        state = exciter_init(p, E_f0)
        t = np.arange(1, n + 1) * DT
        got = np.empty(n)
        zero = np.array([0.0])
        for k in range(n):
            state, out = exciter_step(p, state, dv, zero, E_f0, DT)
            got[k] = out[0]

        K, T_a, T_b, T_e = 100.0, 1.0, 10.0, 0.1
        num = [K * T_a, K]
        den = [T_b * T_e, T_b + T_e, 1.0]
        want = 2.0 + continuous_step(num, den, t, amplitude=dv)
        assert np.max(np.abs(got - want)) < 1e-4

    def test_equilibrium_at_zero_error(self):
        p = exc_params()
        E_f0 = np.array([2.0])
        state = exciter_init(p, E_f0)
        zero = np.array([0.0])
        for _ in range(1000):
            state, out = exciter_step(p, state, 0.0, zero, E_f0, DT)
        assert out[0] == pytest.approx(2.0, abs=1e-12)

    def test_ceiling_and_antiwindup(self):
        p = exc_params(E_max=3.0, E_min=0.0)
        E_f0 = np.array([2.0])
        state = exciter_init(p, E_f0)
        zero = np.array([0.0])
        for _ in range(20000):
            state, out = exciter_step(p, state, 0.2, zero, E_f0, DT)
        assert out[0] == pytest.approx(3.0)
        # error reversal: the limited stage is clamped (no windup), so the
        # output leaves the ceiling once the unlimited T_b lag washes out
        for _ in range(40000):
            state, out = exciter_step(p, state, -0.2, zero, E_f0, DT)
        assert out[0] < 3.0


class TestPss:
    def test_step_response_matches_continuous(self):
        """K s/(1+sT) with two identical lead-lags (1+sT_1)/(1+sT_3)."""
        p = pss_params()
        dw = 1e-3
        n = 20000
        state = pss_init(p, 1)
        t = np.arange(1, n + 1) * DT
        got = np.empty(n)
        for k in range(n):
            state, out = pss_step(p, state, dw, DT)
            got[k] = out[0]

        K, T, T_1, T_3 = 30.0, 10.0, 0.15, 0.05
        washout = signal.TransferFunction([K, 0.0], [T, 1.0])
        lead = signal.TransferFunction([T_1, 1.0], [T_3, 1.0])
        num = np.polymul(np.polymul(washout.num, lead.num), lead.num)
        den = np.polymul(np.polymul(washout.den, lead.den), lead.den)
        want = continuous_step(num, den, t, amplitude=dw)
        assert np.max(np.abs(got - want)) < 1e-4

    def test_washout_kills_constant_input(self):
        p = pss_params()
        state = pss_init(p, 1)
        for _ in range(100000):
            state, out = pss_step(p, state, 0.002, DT)
        # washout pole T = 10 s: after 100 s the output has decayed e^-10 fold
        assert abs(out[0]) < 1e-6

    def test_output_clip(self):
        p = pss_params(H_lim=0.01)
        state = pss_init(p, 1)
        state, out = pss_step(p, state, 0.05, DT)
        assert abs(out[0]) <= 0.01 + 1e-15


class TestAgc:
    def agc(self):
        return AgcParams(lam=200.0, K_p=0.02, K_i=0.05, beta=(0.7, 0.3))

    def test_integrator_ramp(self):
        """Constant frequency error integrates linearly (explicit Euler)."""
        p = self.agc()
        s = AgcState()
        dw = 1e-3
        n = 500
        for _ in range(n):
            s, out = agc_step(p, s, dw, DT)
        e = -200.0 * dw
        want_total = 0.02 * e + 0.05 * e * n * DT
        assert out.sum() == pytest.approx(want_total, abs=1e-12)
        np.testing.assert_allclose(out, np.array([0.7, 0.3]) * want_total)

    def test_average_frequency_weighting(self):
        dw = [0.01, -0.01]
        w = inertia_weights([5.0, 5.0], [1.0, 1.0])
        assert average_frequency(dw, w) == pytest.approx(0.0)
        w = inertia_weights([9.0, 1.0], [1.0, 1.0])
        assert average_frequency(dw, w) == pytest.approx(0.008)
        np.testing.assert_allclose(inertia_weights([3.0, 1.0], [1.0, 2.0]),
                                   [0.6, 0.4])
        with pytest.raises(GridDataError):
            inertia_weights([], [])

    def test_participation_validation(self):
        with pytest.raises(GridDataError):
            AgcParams(lam=1.0, K_p=0.1, K_i=0.1, beta=(0.5, 0.6))


class ReferenceBlocks:
    """The four reference blocks of a grid's fleet, stepped together."""

    def __init__(self, grid, p_m0, E_f0):
        self.grid, self.p_m0, self.E_f0 = grid, p_m0, E_f0
        self.weights = inertia_weights(grid.machines.H, grid.machines.S)
        self.gov = governor_init(grid.governors, p_m0)
        self.pss = pss_init(grid.pss, grid.pss.n)
        self.exc = exciter_init(grid.exciters, E_f0)
        self.agc = AgcState()

    def kernel(self, dt):
        """A kernel for `dt`, from the blocks' current state."""
        g = self.grid
        return ControlKernel(g.governors, g.pss, g.exciters, g.agc,
                             self.weights, self.p_m0, self.E_f0, dt, self.state())

    def state(self):
        return stack_states(self.gov, self.pss, self.exc, self.agc)

    def step(self, dw, delta_v, dt):
        """(p_gov + p_agc, E_f) of one step."""
        g = self.grid
        self.gov, p_gov = governor_step(g.governors, self.gov, dw, self.p_m0, dt)
        self.pss, v_pss = pss_step(g.pss, self.pss, dw, dt)
        self.exc, E_f = exciter_step(g.exciters, self.exc, delta_v, v_pss,
                                     self.E_f0, dt)
        self.agc, p_agc = agc_step(g.agc, self.agc,
                                   average_frequency(dw, self.weights), dt)
        self.v_pss = v_pss
        return p_gov + p_agc, E_f


def kernel_step(kernel, dw, delta_v):
    """One in-place kernel step from inputs written into its slots; returns
    (state, p_gov + p_agc, E_f) as copies."""
    kernel.delta_omega[:] = dw
    kernel.delta_v[:] = delta_v
    p_ctrl, E_f = kernel.step()
    return kernel.state.copy(), p_ctrl.copy(), E_f.copy()


def assert_close(got, want, rtol):
    """Within rtol of the largest reference entry, or of 1 if that is less."""
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= rtol * max(1.0, float(np.max(np.abs(w))))


class TestControlKernel:
    """ControlKernel against the four reference blocks at 1e-12 relative."""

    def test_matches_blocks_over_trip_reclose(self, grid):
        """Inputs from a simulated trip, two controller samples and the
        reclose of the bundled scenario's line; kernel and blocks each
        advance their own state from them."""
        scen = load_scenario(bundled_path("scenario_reclose.json"))
        line = next(ev.line_id for ev in scen.events if ev.kind == "line_trip")
        sim = DynamicSimulation(grid)
        ref = ReferenceBlocks(grid, sim.p_m0, sim.E_f0)
        dt = 5e-3
        kernel = ref.kernel(dt)
        actions = {100: lambda: sim.set_line_status(line, False),
                   200: lambda: sim.controller_update(1.0),
                   400: lambda: sim.controller_update(2.0),
                   600: lambda: sim.set_line_status(line, True)}
        moved = 0.0
        for k in range(800):
            if k in actions:
                actions[k]()
            dw = sim.x[:, mc.OMEGA].copy()
            delta_v = sim.ofo_state.v_ofo - np.abs(sim.bus_voltages()[sim.gen_idx])
            s, p_ctrl, E_f = kernel_step(kernel, dw, delta_v)
            want = ref.step(dw, delta_v, dt)
            assert_close((s, p_ctrl, E_f), (ref.state(),) + want, 1e-12)
            moved = max(moved, float(np.max(np.abs(E_f - sim.E_f0))))
            sim.step(dt)
        assert moved > 1e-3  # the run exercised the blocks

    @pytest.mark.parametrize("limit, dw, delta_v", [
        ("V_max", -2.0, 0.0),
        ("V_min", 2.0, 0.0),
        ("+H_lim", 0.01, 0.0),
        ("-H_lim", -0.01, 0.0),
        ("E_max", 0.0, 0.5),
        ("E_min", 0.0, -0.5),
    ])
    def test_limiters(self, grid, limit, dw, delta_v):
        """Each limiter binds on every machine, then a reversed input
        releases it; the PSS limit reaches the kernel's states through E_f."""
        gov, pss, exc = grid.governors, grid.pss, grid.exciters
        at_limit = {"V_max": lambda r: r.gov.x_valve == gov.V_max,
                    "V_min": lambda r: r.gov.x_valve == gov.V_min,
                    "+H_lim": lambda r: r.v_pss == pss.H_lim,
                    "-H_lim": lambda r: r.v_pss == -pss.H_lim,
                    "E_max": lambda r: r.exc.x_out == exc.E_max,
                    "E_min": lambda r: r.exc.x_out == exc.E_min}[limit]
        n = pss.n
        ref = ReferenceBlocks(grid, np.linspace(1.0, 9.0, n),
                              np.linspace(1.5, 3.0, n))
        dt = 5e-3
        kernel = ref.kernel(dt)
        bound = []
        for k in range(400):
            sign = 1.0 if k < 200 else -0.2
            dw_k, dv_k = np.full(n, sign * dw), np.full(n, sign * delta_v)
            s, p_ctrl, E_f = kernel_step(kernel, dw_k, dv_k)
            want = ref.step(dw_k, dv_k, dt)
            assert_close((s, p_ctrl, E_f), (ref.state(),) + want, 1e-12)
            bound.append(bool(np.all(at_limit(ref))))
        assert any(bound[:200]) and not bound[-1]

    def test_rebuilt_for_new_dt(self, grid):
        """A step with another dt builds a new kernel, which carries the
        control state over; the simulator's control state, a view of the
        kernel's, then matches the blocks stepped with both step sizes."""
        sim = DynamicSimulation(grid)
        ref = ReferenceBlocks(grid, sim.p_m0, sim.E_f0)
        sim.set_line_status("23-24", False)
        kernels, states = [], []
        for dt in (5e-3, 5e-3, 2e-3, 2e-3):
            dw = sim.x[:, mc.OMEGA].copy()
            delta_v = sim.ofo_state.v_ofo - np.abs(sim.bus_voltages()[sim.gen_idx])
            want = ref.step(dw, delta_v, dt)
            sim.step(dt)
            kernels.append(sim._kernel)
            states.append(sim._ctrl.copy())
            assert sim._kernel.dt == dt
            assert sim._ctrl is sim._kernel.state
            assert_close((sim._ctrl, sim.p_m - sim.ofo_state.p_ofo, sim.E_f),
                         (ref.state(),) + want, 1e-12)
        assert kernels[0] is kernels[1] and kernels[2] is kernels[3]
        assert kernels[1] is not kernels[2]
        # the new kernel copied the old one's last state and left it as it was
        np.testing.assert_array_equal(kernels[1].state, states[1])
        assert not np.shares_memory(kernels[1].state, kernels[2].state)

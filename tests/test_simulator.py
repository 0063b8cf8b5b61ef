"""Closed-loop time stepping: equilibrium hold, integrator order, events."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import lu_solve

from gridofo import machines as mc
from gridofo.controls import (
    AgcState,
    agc_step,
    average_frequency,
    exciter_init,
    exciter_step,
    governor_init,
    governor_step,
    inertia_weights,
    pss_init,
    pss_step,
)
from gridofo.dataio import bundled_path, load_scenario
from gridofo.errors import (
    GridDataError,
    IslandingError,
    NetworkSolveError,
    OfoStepError,
    SimulationBlowupError,
)
from gridofo.network import NetworkModel, build_ybus
from gridofo.ofo import default_config, ofo_update
from gridofo.qp import MAX_ITER, QpSolution
from gridofo.sensitivity import compute_sensitivity
from gridofo.simulator import (
    LINE_RECLOSE,
    LINE_TRIP,
    RECLOSE_BLOCKED,
    SAMPLE_SKIPPED,
    DynamicSimulation,
    Event,
    RunEvent,
    SimConfig,
    check_events,
    gap_statistics,
    run_scenario,
    sweep_plan,
)


class TestConfigValidation:
    def test_dt_vs_record(self):
        with pytest.raises(GridDataError):
            SimConfig(t_end=1.0, dt=0.2, record_every=0.1)
        with pytest.raises(GridDataError):
            SimConfig(t_end=1.0, dt=0.003, record_every=0.01)

    def test_events_resolved_to_steps(self, grid):
        """Times within 1e-9 steps of the grid map to their step, in time
        order within a step; the controller samples every period (2 steps)
        from each activation until the next, and through the last step."""
        cfg = SimConfig(t_end=25.0, dt=2.5, record_every=2.5)
        late = Event(time=5.0 + 1.25e-9, kind="line_reclose", line_id="23-24")
        trip = Event(time=5.0, kind="line_trip", line_id="23-24")
        early = Event(time=2.5 - 1.25e-9, kind="activate_ofo")
        again = Event(time=10.0, kind="activate_ofo")
        schedule, samples = check_events(grid.net, [late, again, early, trip],
                                         cfg, 5.0)
        assert schedule == {1: [early], 2: [trip, late], 4: [again]}
        assert samples == {1, 3, 4, 6, 8, 10}
        assert check_events(grid.net, [trip], cfg, 5.0)[1] == set()

    @pytest.mark.parametrize("period", [0.503, 1e-12, np.nan])
    def test_sampling_period_checked(self, grid, period):
        with pytest.raises(GridDataError, match="sampling_period"):
            check_events(grid.net, [], SimConfig(t_end=1.0, dt=0.01), period)

    def test_event_validation(self):
        with pytest.raises(GridDataError):
            Event(time=-1.0, kind="line_trip", line_id="23-24")
        with pytest.raises(GridDataError):
            Event(time=1.0, kind="unknown")
        with pytest.raises(GridDataError):
            Event(time=1.0, kind="line_trip")

    @pytest.mark.parametrize("kind, guard", [
        ("line_reclose", "x"), ("line_reclose", np.nan), ("line_reclose", np.inf),
        ("line_reclose", -1.0), ("line_reclose", 0.0), ("line_trip", 30.0)])
    def test_reclose_guard_checked(self, kind, guard):
        with pytest.raises(GridDataError, match="guard_max_angle_deg"):
            Event(time=1.0, kind=kind, line_id="23-24", guard_max_angle_deg=guard)


class TestInitialization:
    def test_network_matches_power_flow(self, grid, base_solution):
        """Dynamic algebraic solve reproduces the power flow at t = 0."""
        sim = DynamicSimulation(grid)
        V = sim.bus_voltages()
        np.testing.assert_allclose(V, base_solution.v_complex, atol=1e-6)

    def test_derivatives_vanish(self, grid):
        sim = DynamicSimulation(grid)
        d = sim._derivs(sim.x)
        assert np.max(np.abs(d)) < 1e-9

    def test_unknown_sensitivity_topology_rejected(self, grid):
        with pytest.raises(GridDataError):
            DynamicSimulation(grid, sensitivity_topology="1-99")

    @pytest.mark.parametrize("bad_solve", [
        lambda lu, b, **kw: np.full_like(b, np.nan),
        lambda lu, b, **kw: 1.001 * lu_solve(lu, b),
    ], ids=["nan", "inaccurate"])
    def test_network_solve_checked(self, grid, monkeypatch, bad_solve):
        """A non-finite or inaccurate reduction is a numerical failure (exit 2)."""
        monkeypatch.setattr("gridofo.simulator.lu_solve", bad_solve)
        with pytest.raises(NetworkSolveError):
            DynamicSimulation(grid)
        assert not issubclass(NetworkSolveError, GridDataError)


def full_network(sim, x):
    """Bus voltages and machine derivatives from a dense 39-bus solve."""
    gen = sim.gen_idx
    Y = build_ybus(sim._net_now)
    Y[np.diag_indices_from(Y)] += sim.y_load
    Y[gen, gen] += sim.y_int
    inj = np.zeros(Y.shape[0], dtype=complex)
    inj[gen] = mc.internal_emf(x) * sim.y_int
    V = np.linalg.solve(Y, inj)
    d = mc.machine_derivatives(sim.mach, x, sim.p_m, sim.E_f, V[gen],
                               sim.omega_base)
    return V, d


class TestKronReduction:
    def test_matches_full_network(self, grid):
        """Reduced voltages and the fused right-hand side agree with the full
        network and machine_derivatives at 1e-10, relative to the largest
        reference entry (at least 1), before the trip, after it, and after
        the reclose of the bundled scenario's line."""
        scen = load_scenario(bundled_path("scenario_reclose.json"))
        line = next(ev.line_id for ev in scen.events if ev.kind == "line_trip")
        sim = DynamicSimulation(grid)
        dt = 5e-3

        def advance_and_check(seconds):
            for _ in range(round(seconds / dt)):
                sim.step(dt)
            V_ref, d_ref = full_network(sim, sim.x)
            for got, want in ((sim.bus_voltages(), V_ref),
                              (sim._derivs(sim.x), d_ref)):
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) <= 1e-10 * scale

        advance_and_check(0.5)
        sim.set_line_status(line, False)
        advance_and_check(1.0)
        sim.set_line_status(line, True)
        advance_and_check(0.5)


class TestControlKernel:
    def test_matches_reference_stepping(self, grid):
        """DynamicSimulation against a step written here with the four
        reference blocks, and with machine_derivatives on the dense 39-bus
        network solve for the voltages and every RK4 stage, at 1e-10 relative
        to each quantity's largest entry (or 1), over a trip, two controller
        samples and the reclose of the bundled scenario's line."""
        scen = load_scenario(bundled_path("scenario_reclose.json"))
        line = next(ev.line_id for ev in scen.events if ev.kind == "line_trip")
        sim, ref = DynamicSimulation(grid), DynamicSimulation(grid)
        weights = inertia_weights(ref.mach.H, ref.mach.S)
        gov = governor_init(grid.governors, ref.p_m0)
        pss = pss_init(grid.pss, ref.mach.n)
        exc = exciter_init(grid.exciters, ref.E_f0)
        agc = AgcState()
        u0 = sim.ofo_state.u.copy()
        dt = 5e-3

        def derivs(x):
            return full_network(ref, x)[1]

        for k in range(1000):
            t = k * dt
            for s in (sim, ref):
                if k == 100:
                    s.set_line_status(line, False)
                elif k in (300, 600):
                    s.controller_update(t)
                elif k == 800:
                    s.set_line_status(line, True)
            x = ref.x
            dw = x[:, mc.OMEGA]
            gov, p_gov = governor_step(grid.governors, gov, dw, ref.p_m0, dt)
            pss, v_pss = pss_step(grid.pss, pss, dw, dt)
            V, _ = full_network(ref, x)
            delta_v = ref.ofo_state.v_ofo - np.abs(V[ref.gen_idx])
            exc, ref.E_f = exciter_step(grid.exciters, exc, delta_v, v_pss,
                                        ref.E_f0, dt)
            agc, p_agc = agc_step(grid.agc, agc, average_frequency(dw, weights), dt)
            ref.p_m = p_gov + ref.ofo_state.p_ofo + p_agc
            k1 = derivs(x)
            k2 = derivs(x + 0.5 * dt * k1)
            k3 = derivs(x + 0.5 * dt * k2)
            k4 = derivs(x + dt * k3)
            ref.x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            sim.step(dt)
        assert np.any(sim.ofo_state.u != u0)  # the controller moved u
        for got, want in ((sim.x, ref.x), (sim.p_m, ref.p_m), (sim.E_f, ref.E_f),
                          (sim.ofo_state.u, ref.ofo_state.u)):
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-10 * scale

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -5e-3])
    def test_bad_step_size_rejected(self, grid, dt):
        """An invalid dt is an input error, before and after a valid step,
        and leaves the state untouched."""
        sim = DynamicSimulation(grid)
        for _ in range(2):
            x, ctrl = sim.x.copy(), sim._ctrl.copy()
            with pytest.raises(GridDataError):
                sim.step(dt)
            np.testing.assert_array_equal(sim.x, x)
            np.testing.assert_array_equal(sim._ctrl, ctrl)
            sim.step(5e-3)


class TestEquilibriumHold:
    def test_drift_over_ten_seconds(self, grid):
        sim = DynamicSimulation(grid)
        x0 = sim.x.copy()
        V0 = sim.bus_voltages()
        for _ in range(2000):
            sim.step(5e-3)
        assert np.max(np.abs(sim.x - x0)) <= 1e-6
        assert np.max(np.abs(sim.bus_voltages() - V0)) <= 1e-6

    def test_no_event_trajectory_flat(self, grid):
        traj = run_scenario(grid, [], None,
                            SimConfig(t_end=2.0, dt=5e-3, record_every=0.1))
        assert np.max(np.abs(traj.vgap - traj.vgap[0])) <= 1e-6
        assert np.max(np.abs(traj.v - traj.v[0])) <= 1e-6
        assert np.max(np.abs(traj.p_m - traj.p_m[0])) <= 1e-6


class TestIntegratorOrder:
    def test_rk4_convergence_order(self, grid):
        """Richardson study on the post-trip transient: order >= 4.

        Control blocks are advanced trapezoidally (order 2), so the pure
        machine ODE order is measured over a window with controls frozen by
        construction: immediately after the trip the governor and exciter
        inputs are still at equilibrium, and the dominant error is RK4's.
        """
        def final_state(dt):
            sim = DynamicSimulation(grid)
            sim.set_line_status("23-24", False)
            # integrate the machine ODEs only, controls held at equilibrium
            n = int(round(0.2 / dt))
            for _ in range(n):
                x = sim.x
                k1 = sim._derivs(x)
                k2 = sim._derivs(x + 0.5 * dt * k1)
                k3 = sim._derivs(x + 0.5 * dt * k2)
                k4 = sim._derivs(x + dt * k3)
                sim.x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            return sim.x.copy()

        ref = final_state(1e-3 / 4)
        e1 = np.max(np.abs(final_state(1e-2) - ref))
        e2 = np.max(np.abs(final_state(5e-3) - ref))
        order = np.log2(e1 / e2)
        assert order > 3.5

    def test_blowup_guard(self, grid):
        sim = DynamicSimulation(grid)
        sim.x[:, 2] = 2e6
        with pytest.raises(SimulationBlowupError):
            sim.step(5e-3)
        sim = DynamicSimulation(grid)
        sim.x[0, mc.OMEGA] = np.nan
        with pytest.raises(SimulationBlowupError):
            sim.step(5e-3)
        sim = DynamicSimulation(grid)
        sim.x[0, mc.EQ_P] = np.nan
        with pytest.raises(SimulationBlowupError):
            sim.step(5e-3)


class TestStepBuffers:
    @pytest.mark.parametrize("p_ofo", [-200.0, -20.0])
    def test_rotor_speed_checked_in_every_stage(self, grid, p_ofo):
        """Rotor speeds above zero at the start of the step, which a large
        negative power set-point drives through zero inside it (in stage 2
        at -200 pu, in stage 4 at -20 pu), raise and leave the state as it
        was."""
        sim = DynamicSimulation(grid)
        n = sim.mach.n
        sim.x[:, mc.OMEGA] = -0.95
        sim.ofo_state = replace(sim.ofo_state, u=np.concatenate(
            [np.full(n, p_ofo), sim.ofo_state.v_ofo]))
        x0 = sim.x.copy()
        with pytest.raises(SimulationBlowupError, match="rotor speed"):
            sim.step(5e-3)
        np.testing.assert_array_equal(sim.x, x0)

    def test_step_leaves_earlier_arrays_alone(self, grid):
        """The state, p_m and E_f of one step are new arrays, not views of
        buffers that the next step writes."""
        sim = DynamicSimulation(grid)
        sim.set_line_status("23-24", False)
        sim.step(5e-3)
        taken = (sim.x, sim.p_m, sim.E_f)
        copies = [a.copy() for a in taken]
        sim.step(5e-3)
        for a, c, now in zip(taken, copies, (sim.x, sim.p_m, sim.E_f)):
            np.testing.assert_array_equal(a, c)
            assert not np.array_equal(now, c)

    def test_trajectory_rows_are_snapshots(self, grid):
        """Every recorded row equals the state at its own instant, stepped
        here by hand, not the state at a later one."""
        dt = 5e-3
        traj = run_scenario(
            grid, [Event(time=4 * dt, kind="line_trip", line_id="23-24")], None,
            SimConfig(t_end=20 * dt, dt=dt, record_every=dt))
        sim = DynamicSimulation(grid)
        for k in range(21):
            if k == 4:
                sim.set_line_status("23-24", False)
            np.testing.assert_array_equal(traj.p_m[k], sim.p_m)
            np.testing.assert_array_equal(traj.v[k], sim.measurement(k * dt).v)
            if k < 20:
                sim.step(dt)
        assert len({row.tobytes() for row in traj.p_m}) > 2


class TestEvents:
    def test_trip_increases_gap(self, grid):
        traj = run_scenario(
            grid, [Event(time=1.0, kind="line_trip", line_id="23-24")], None,
            SimConfig(t_end=5.0, dt=5e-3, record_every=0.1))
        i_pre = np.searchsorted(traj.t, 1.0) - 1
        assert traj.vgap[-1] > traj.vgap[i_pre]

    def test_trip_idempotent(self, grid):
        sim = DynamicSimulation(grid)
        assert sim.set_line_status("23-24", False)
        V1 = sim.bus_voltages()
        assert not sim.set_line_status("23-24", False)
        np.testing.assert_array_equal(sim.bus_voltages(), V1)

    def test_unknown_line_rejected(self, grid):
        sim = DynamicSimulation(grid)
        with pytest.raises(GridDataError):
            sim.set_line_status("1-99", False)

    def test_islanding_trip_raises(self, grid):
        sim = DynamicSimulation(grid)
        with pytest.raises(IslandingError) as exc:
            sim.set_line_status("2-30", False)
        assert 30 in exc.value.buses

    def test_reclose_restores_topology(self, grid):
        events = [Event(time=0.5, kind="line_trip", line_id="23-24"),
                  Event(time=2.0, kind="line_reclose", line_id="23-24")]
        traj = run_scenario(grid, events, None,
                            SimConfig(t_end=8.0, dt=5e-3, record_every=0.1))
        kinds = [ev.kind for ev in traj.events]
        assert LINE_TRIP in kinds
        assert LINE_RECLOSE in kinds
        # after reclose the system relaxes back toward the initial gap
        assert abs(traj.vgap[-1] - traj.vgap[0]) < 0.2 * abs(
            traj.vgap[np.searchsorted(traj.t, 1.0)] - traj.vgap[0])

    def test_guarded_reclose_waits(self, grid):
        """A guard below the post-trip angle defers the reclose until the
        controller brings the gap under the threshold."""
        events = [
            Event(time=1.0, kind="line_trip", line_id="23-24"),
            Event(time=2.0, kind="line_reclose", line_id="23-24",
                  guard_max_angle_deg=0.5),
            Event(time=5.0, kind="activate_ofo"),
        ]
        traj = run_scenario(grid, events, None,
                            SimConfig(t_end=60.0, dt=5e-3, record_every=0.1))
        blocked = [ev.t for ev in traj.events if ev.kind == RECLOSE_BLOCKED]
        closed = [ev.t for ev in traj.events if ev.kind == LINE_RECLOSE]
        assert blocked and closed
        assert closed[0] > 2.0

    def test_event_near_grid_applied(self, grid):
        """A trip 8e-10 steps after t_end is applied at the last step."""
        traj = run_scenario(
            grid, [Event(time=5.000000002, kind="line_trip", line_id="23-24")],
            None, SimConfig(t_end=5.0, dt=2.5, record_every=2.5))
        assert traj.events == [RunEvent(5.0, LINE_TRIP, "line 23-24 tripped")]

    def test_samples_restart_at_each_activation(self, grid, monkeypatch):
        """The controller samples every 0.5 s from 1.0 s, and from 1.3 s on
        every 0.5 s from the second activation."""
        times = []
        orig = DynamicSimulation.controller_update
        monkeypatch.setattr(DynamicSimulation, "controller_update",
                            lambda sim, t: times.append(t) or orig(sim, t))
        events = [Event(time=0.3, kind="line_trip", line_id="23-24"),
                  Event(time=1.0, kind="activate_ofo"),
                  Event(time=1.3, kind="activate_ofo")]
        run_scenario(grid, events, default_config(grid.net, sampling_period=0.5),
                     SimConfig(t_end=3.0, dt=0.01, record_every=0.1))
        np.testing.assert_allclose(times, [1.0, 1.3, 1.8, 2.3, 2.8])

    def test_set_input_override(self, grid):
        n_gen = grid.net.n_gen
        u = np.concatenate([np.full(n_gen, 0.1),
                            [g.v_set for g in grid.net.generators]])
        traj = run_scenario(
            grid, [Event(time=0.5, kind="set_input", u=u)], None,
            SimConfig(t_end=1.0, dt=5e-3, record_every=0.1))
        assert np.all(traj.p_ofo[-1] == 0.1)


@pytest.fixture(scope="module")
def scenario_traj(grid):
    events = [Event(time=1.0, kind="line_trip", line_id="23-24"),
              Event(time=5.0, kind="activate_ofo")]
    return run_scenario(grid, events, None,
                        SimConfig(t_end=20.0, dt=5e-3, record_every=0.1))


class TestTrajectoryInvariants:
    def test_timestamps_strictly_increasing(self, scenario_traj):
        assert np.all(np.diff(scenario_traj.t) > 0)

    def test_u_changes_only_at_sampling_instants(self, scenario_traj):
        u = np.hstack([scenario_traj.p_ofo, scenario_traj.v_ofo])
        t = scenario_traj.t
        changed = np.nonzero(np.any(np.diff(u, axis=0) != 0.0, axis=1))[0]
        for k in changed:
            # change between samples k and k+1: a controller instant within
            since_on = t[k + 1] - 5.0
            assert since_on >= -1e-9
            frac = since_on / 5.0 - round(since_on / 5.0)
            assert abs(frac) * 5.0 < 0.1 + 1e-9

    def test_gap_reduction_after_activation(self, scenario_traj):
        i_on = np.searchsorted(scenario_traj.t, 5.0)
        assert scenario_traj.vgap[-1] < scenario_traj.vgap[i_on]


class TestControllerUpdate:
    def test_failed_projection_holds_input(self, grid, base_solution,
                                            monkeypatch):
        def stuck_qp(problem):
            return QpSolution(w=np.zeros(problem.n),
                              lam=np.zeros(problem.h_ineq.size),
                              active_set=(), status=MAX_ITER)

        monkeypatch.setattr("gridofo.ofo.qp_solve", stuck_qp)
        sim = DynamicSimulation(grid)
        u0 = sim.ofo_state.u.copy()
        S = compute_sensitivity(grid.net, base_solution)
        with pytest.raises(OfoStepError) as exc:
            ofo_update(sim.ofo_cfg, sim.ofo_state, sim.measurement(0.0), S)
        skip = sim.controller_update(0.0)
        np.testing.assert_array_equal(sim.ofo_state.u, u0)
        assert skip == RunEvent(0.0, SAMPLE_SKIPPED,
                                f"set-point update skipped: {exc.value}")

    def test_islanded_model_holds_input(self, grid):
        """Erasing 2-30 islands bus 30 in the controller's model: after a
        trip of 23-24 the sample is skipped and the input held."""
        sim = DynamicSimulation(grid, sensitivity_topology="2-30")
        sim.set_line_status("23-24", False)
        u0 = sim.ofo_state.u.copy()
        skip = sim.controller_update(5.0)
        np.testing.assert_array_equal(sim.ofo_state.u, u0)
        assert skip == RunEvent(5.0, SAMPLE_SKIPPED,
                                "sensitivity update skipped: grid islanded; "
                                "disconnected buses: [30]")

    @pytest.mark.parametrize("topology", [None, "2-30", "16-17"])
    def test_islanding_checked_once_per_topology(self, grid, monkeypatch,
                                                 topology):
        """Samples on one topology walk no graph: the model's islanded buses
        are settled when its topology is built."""
        sim = DynamicSimulation(grid, sensitivity_topology=topology)
        sim.set_line_status("23-24", False)
        walks = []
        orig = NetworkModel.connected_components
        monkeypatch.setattr(NetworkModel, "connected_components",
                            lambda net: walks.append(net) or orig(net))
        skips = [(t, ev.kind) for t in (5.0, 10.0, 15.0)
                 if (ev := sim.controller_update(t)) is not None]
        assert walks == []
        assert skips == ([(t, SAMPLE_SKIPPED) for t in (5.0, 10.0, 15.0)]
                         if topology == "2-30" else [])

    def test_model_follows_plant_topology(self, grid):
        """The controller's model tracks trips and recloses of the plant,
        and the erased line stays out of it throughout."""
        sim = DynamicSimulation(grid, sensitivity_topology="16-17")

        def in_service(net):
            return {ln.id: ln.in_service for ln in net.lines}

        for line, status in (("23-24", False), ("23-24", True)):
            sim.set_line_status(line, status)
            plant, model = in_service(sim._net_now), in_service(sim._model_net)
            assert plant["23-24"] is status and plant["16-17"]
            assert model == {**plant, "16-17": False}


class TestSweepStatistics:
    def test_statistics_match_oracle_by_time(self, grid):
        """On the sweep benchmark's timeline, the nominal run's and the
        16-17 member's statistics equal a recomputation by time: rows found
        with searchsorted, as tests/test_acceptance.py finds them."""
        events = [Event(time=0.3, kind="line_trip", line_id="23-24"),
                  Event(time=1.0, kind="activate_ofo")]
        ofo_cfg = default_config(grid.net, alpha=3.0, sampling_period=0.5)
        cfg = SimConfig(t_end=3.0, dt=0.01, record_every=0.1)
        plan = sweep_plan(grid, events, ofo_cfg, cfg)
        assert plan.members[0] is None and "16-17" in plan.members
        nominal = run_scenario(grid, events, ofo_cfg, cfg)
        t = nominal.t
        i_on = int(np.searchsorted(t, 1.0 - 1e-9))
        peak = nominal.vgap[:i_on].max()
        for member in (nominal, run_scenario(grid, events, ofo_cfg, cfg,
                                             sensitivity_topology="16-17")):
            vgap = member.vgap
            halve = next((k for k in range(1, 5) if vgap[int(np.searchsorted(
                t, 1.0 + 0.5 * k - 1e-9))] <= 0.5 * vgap[i_on]), None)
            top = vgap[i_on:].max()
            stable = bool(top <= 3.0 * peak and vgap[-1] < peak)
            assert gap_statistics(plan, nominal.vgap, vgap) == (
                top, vgap[-1], halve, stable)

"""End-to-end acceptance gate.

Each test checks one headline property of the package at its stated
tolerance and prints a single pass/fail line (visible with pytest -s or on
failure). Tolerances and budgets are asserted, not merely reported.
"""

import json
import time

import numpy as np
from scipy import signal

from gridofo.cli import main
from gridofo.network import solve_power_flow
from gridofo.qp import OPTIMAL, INFEASIBLE, kkt_residuals, qp_solve
from gridofo.sensitivity import compute_sensitivity
from gridofo.simulator import DynamicSimulation, Event, SimConfig, run_scenario
from gridofo.controls import (
    ExciterParams,
    ExciterSet,
    GovernorParams,
    GovernorSet,
    PssParams,
    PssSet,
    exciter_init,
    exciter_step,
    governor_init,
    governor_step,
    pss_init,
    pss_step,
)

from conftest import brute_force_qp, random_qp
from test_sensitivity import fd_sensitivity, max_rel_error


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_1_power_flow_convergence(grid):
    net = grid.net
    gen_p = [g.p_set for g in net.generators]
    gen_v = [g.v_set for g in net.generators]
    t0 = time.perf_counter()
    sol = solve_power_flow(net, gen_p, gen_v)
    wall = time.perf_counter() - t0
    ok = sol.residual <= 1e-8 and sol.iterations <= 10 and wall < 0.1
    report("power flow: mismatch <= 1e-8 in <= 10 iterations, < 0.1 s", ok,
           f"residual {sol.residual:.2e}, {sol.iterations} iters, {wall:.3f} s")


def test_2_equilibrium_hold(grid):
    t0 = time.perf_counter()
    sim = DynamicSimulation(grid)
    x0 = sim.x.copy()
    V0 = sim.bus_voltages()
    for _ in range(2000):
        sim.step(5e-3)
    wall = time.perf_counter() - t0
    drift_x = float(np.max(np.abs(sim.x - x0)))
    drift_v = float(np.max(np.abs(sim.bus_voltages() - V0)))
    ok = drift_x <= 1e-6 and drift_v <= 1e-6 and wall < 5.0
    report("equilibrium hold: 10 s drift <= 1e-6, < 5 s", ok,
           f"state drift {drift_x:.2e}, voltage drift {drift_v:.2e}, {wall:.2f} s")


def test_3_sensitivity_against_finite_differences(grid, base_solution):
    net = grid.net
    gen_p = np.array([g.p_set for g in net.generators])
    gen_v = np.array([g.v_set for g in net.generators])
    worst = 0.0
    S = compute_sensitivity(net, base_solution).matrix
    S_fd = fd_sensitivity(net, gen_p, gen_v, warm=base_solution)
    worst = max(worst, max_rel_error(S, S_fd))
    rng = np.random.default_rng(17)
    for _ in range(3):
        p = gen_p + rng.uniform(0.0, 0.5, gen_p.size)
        v = np.clip(gen_v + rng.uniform(-0.02, 0.02, gen_v.size), 0.9, 1.1)
        sol = solve_power_flow(net, p, v, warm_start=base_solution)
        S = compute_sensitivity(net, sol).matrix
        S_fd = fd_sensitivity(net, p, v, warm=sol)
        worst = max(worst, max_rel_error(S, S_fd))
    ok = worst <= 1e-4
    report("sensitivity matches central differences at 4 operating points", ok,
           f"max relative error {worst:.2e}")


def test_4_qp_against_enumeration():
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    worst_kkt = 0.0
    for _ in range(200):
        p = random_qp(rng)
        sol = qp_solve(p)
        ref = brute_force_qp(p)
        if ref is None:
            assert sol.status == INFEASIBLE
            continue
        assert sol.status == OPTIMAL
        worst_gap = max(worst_gap, float(np.max(np.abs(sol.w - ref))))
        worst_kkt = max(worst_kkt, max(kkt_residuals(p, sol).values()))
    ok = worst_gap <= 1e-8 and worst_kkt <= 1e-8
    report("QP matches exhaustive enumeration on 200 random problems", ok,
           f"max solution gap {worst_gap:.2e}, max KKT residual {worst_kkt:.2e}")


def test_5_scenario_shape(grid):
    events = [Event(time=10.0, kind="line_trip", line_id="23-24"),
              Event(time=40.0, kind="activate_ofo")]
    t0 = time.perf_counter()
    traj = run_scenario(grid, events, None,
                        SimConfig(t_end=120.0, dt=5e-3, record_every=0.1))
    wall = time.perf_counter() - t0

    i_trip = int(np.searchsorted(traj.t, 10.0))
    i_on = int(np.searchsorted(traj.t, 40.0))
    gap_rise = traj.vgap[i_trip + 1] > traj.vgap[i_trip - 1]

    g_on = traj.vgap[i_on]
    first90 = None
    for k in range(1, 31):
        idx = int(np.searchsorted(traj.t, 40.0 + 5.0 * k))
        if idx < traj.t.size and traj.vgap[idx] <= 0.1 * g_on:
            first90 = k
            break

    in_bounds = (np.all(traj.p_ofo >= 0.0) and np.all(traj.p_ofo <= 1.0)
                 and np.all(traj.v_ofo >= 0.9) and np.all(traj.v_ofo <= 1.1))

    ok = gap_rise and first90 is not None and in_bounds and wall < 60.0
    report("scenario: gap rises at trip, 90% cut within 30 iterations, "
           "iterates inside bounds, < 60 s", ok,
           f"90% at iteration {first90}, wall {wall:.1f} s")


def test_6_robustness_sweep(grid):
    events = [Event(time=10.0, kind="line_trip", line_id="23-24"),
              Event(time=40.0, kind="activate_ofo")]
    cfg = SimConfig(t_end=300.0, dt=0.01, record_every=0.5)
    t0 = time.perf_counter()

    nominal = run_scenario(grid, events, None, cfg)
    t = nominal.t
    i_trip = int(np.searchsorted(t, 10.0))
    i_on = int(np.searchsorted(t, 40.0))
    peak = float(nominal.vgap[i_trip:i_on].max())
    g_on = nominal.vgap[i_on]

    def first90(vgap):
        for k in range(1, int((t[-1] - 40.0) / 5.0) + 1):
            idx = int(np.searchsorted(t, 40.0 + 5.0 * k))
            if idx < vgap.size and vgap[idx] <= 0.1 * g_on:
                return k
        return None

    n_nom = first90(nominal.vgap)
    assert n_nom is not None

    post_net = grid.net.with_line_out("23-24")
    all_bounded = True
    n_runs = 0
    n_milestone = 0
    for ln in grid.net.lines:
        if ln.id == "23-24":
            continue
        # the controller model starts from the post-contingency topology
        if len(post_net.with_line_out(ln.id).connected_components()) > 1:
            continue
        traj = run_scenario(grid, events, None, cfg,
                            sensitivity_topology=ln.id)
        n_runs += 1
        post = traj.vgap[i_on:]
        if post.max() > 3.0 * peak or traj.vgap[-1] >= peak:
            all_bounded = False
        k = first90(traj.vgap)
        if k is not None and k <= 3 * n_nom:
            n_milestone += 1
    wall = time.perf_counter() - t0
    share = n_milestone / n_runs
    ok = all_bounded and share >= 0.8 and wall < 600.0
    report("robustness sweep: every run bounded and recovered, >= 80% hit "
           "the nominal milestone, < 10 min", ok,
           f"{n_runs} runs, milestone share {share:.0%}, wall {wall:.0f} s")


def test_7_block_fidelity():
    dt = 1e-3
    n = 20000
    t = np.arange(1, n + 1) * dt

    def step_response(num, den, amplitude):
        sys = signal.TransferFunction(num, den)
        _, y = signal.step(sys, T=np.concatenate([[0.0], t]))
        return amplitude * y[1:]

    worst = 0.0

    gov = GovernorSet([GovernorParams(T_1=0.5, T_2=2.5, T_3=7.5, R_g=0.05,
                                      D_t=0.3, V_min=-100.0, V_max=100.0)])
    p_m0 = np.array([0.8])
    dw = 0.01
    state = governor_init(gov, p_m0)
    got = np.empty(n)
    for k in range(n):
        state, out = governor_step(gov, state, dw, p_m0, dt)
        got[k] = out[0]
    want = (0.8 - 0.3 * dw
            + step_response([2.5, 1.0], [0.5 * 7.5, 8.0, 1.0], -dw / 0.05))
    worst = max(worst, float(np.max(np.abs(got - want))))

    exc = ExciterSet([ExciterParams(K_ex=100.0, T_a=1.0, T_b=10.0, T_e=0.1,
                                    E_min=-100.0, E_max=100.0)])
    E_f0 = np.array([2.0])
    dv = 0.01
    state = exciter_init(exc, E_f0)
    zero = np.array([0.0])
    for k in range(n):
        state, out = exciter_step(exc, state, dv, zero, E_f0, dt)
        got[k] = out[0]
    want = 2.0 + step_response([100.0, 100.0], [1.0, 10.1, 1.0], dv)
    worst = max(worst, float(np.max(np.abs(got - want))))

    pss = PssSet([PssParams(K_PSS=30.0, T=10.0, T_1=0.15, T_2=0.15,
                            T_3=0.05, T_4=0.05, H_lim=100.0)])
    dw = 1e-3
    state = pss_init(pss, 1)
    for k in range(n):
        state, out = pss_step(pss, state, dw, dt)
        got[k] = out[0]
    num = np.polymul(np.polymul([30.0, 0.0], [0.15, 1.0]), [0.15, 1.0])
    den = np.polymul(np.polymul([10.0, 1.0], [0.05, 1.0]), [0.05, 1.0])
    want = step_response(num, den, dw)
    worst = max(worst, float(np.max(np.abs(got - want))))

    # droop identity at steady state, limits inactive
    state = governor_init(gov, p_m0)
    dw = 0.004
    out = None
    for _ in range(200000):
        state, out = governor_step(gov, state, dw, p_m0, dt)
    droop_err = abs(out[0] - (0.8 - dw / 0.05 - 0.3 * dw))

    ok = worst <= 1e-4 and droop_err <= 1e-8
    report("control blocks match continuous responses at dt = 1 ms; droop "
           "identity holds", ok,
           f"max step-response error {worst:.2e}, droop error {droop_err:.2e}")


def test_8_deterministic_csv_output(tmp_path):
    doc = {"events": [
        {"time": 2.0, "kind": "line_trip", "line_id": "23-24"},
        {"time": 5.0, "kind": "activate_ofo"}],
        "sim": {"dt": 0.005, "t_end": 20.0, "record_every": 0.1},
        "ofo": {"alpha": 3.0, "sampling_period": 5.0}}
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["simulate", "--scenario", str(scen),
                     "--out", str(out)])
        assert code == 0
        outs.append((out / "trajectory.csv").read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    report("identical manifest and seed give byte-identical CSVs", ok,
           f"{len(outs[0])} bytes")

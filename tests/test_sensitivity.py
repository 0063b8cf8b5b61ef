"""Power-flow sensitivities against central finite differences."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from gridofo.errors import (
    GridDataError,
    PowerFlowDivergenceError,
    VoltageCollapseProximityError,
)
from gridofo.network import extract_measurement, line_flow_complex, solve_power_flow
from gridofo.sensitivity import _flow_partials, compute_sensitivity

from conftest import three_bus_net

FD_STEP = 1e-5


def fd_sensitivity(net, gen_p, gen_v, warm=None):
    """Central finite differences of the measurement through the power flow."""
    gen_p = np.asarray(gen_p, dtype=float)
    gen_v = np.asarray(gen_v, dtype=float)
    n_gen = net.n_gen

    def measure(p, v):
        sol = solve_power_flow(net, p, v, warm_start=warm)
        return extract_measurement(net, sol).as_vector()

    cols = []
    for j in range(n_gen):
        dp = np.zeros(n_gen)
        dp[j] = FD_STEP
        cols.append((measure(gen_p + dp, gen_v)
                     - measure(gen_p - dp, gen_v)) / (2 * FD_STEP))
    for j in range(n_gen):
        dv = np.zeros(n_gen)
        dv[j] = FD_STEP
        cols.append((measure(gen_p, gen_v + dv)
                     - measure(gen_p, gen_v - dv)) / (2 * FD_STEP))
    return np.column_stack(cols)


def max_rel_error(S, S_fd):
    scale = max(1.0, np.max(np.abs(S_fd)))
    return np.max(np.abs(S - S_fd)) / scale


@pytest.fixture(scope="module")
def base_inputs(grid):
    net = grid.net
    return (np.array([g.p_set for g in net.generators]),
            np.array([g.v_set for g in net.generators]))


class TestAgainstFiniteDifferences:
    def test_base_case(self, grid, base_solution, base_inputs):
        gen_p, gen_v = base_inputs
        S = compute_sensitivity(grid.net, base_solution).matrix
        S_fd = fd_sensitivity(grid.net, gen_p, gen_v, warm=base_solution)
        assert max_rel_error(S, S_fd) <= 1e-4

    def test_random_operating_points(self, grid, base_solution, base_inputs):
        gen_p, gen_v = base_inputs
        rng = np.random.default_rng(42)
        for _ in range(3):
            p = gen_p + rng.uniform(0.0, 0.5, gen_p.size)
            v = np.clip(gen_v + rng.uniform(-0.02, 0.02, gen_v.size), 0.9, 1.1)
            sol = solve_power_flow(grid.net, p, v, warm_start=base_solution)
            S = compute_sensitivity(grid.net, sol).matrix
            S_fd = fd_sensitivity(grid.net, p, v, warm=sol)
            assert max_rel_error(S, S_fd) <= 1e-4

    def test_post_trip_topology(self, grid, base_inputs):
        gen_p, gen_v = base_inputs
        net = grid.net.with_line_out("23-24")
        sol = solve_power_flow(net, gen_p, gen_v)
        S = compute_sensitivity(net, sol).matrix
        S_fd = fd_sensitivity(net, gen_p, gen_v, warm=sol)
        assert max_rel_error(S, S_fd) <= 1e-4


class TestFlowPartials:
    def test_against_finite_differences(self, grid, base_inputs):
        """d|S_from|/d(theta_k) and d|S_from|/d(|V_k|) against central
        differences of line_flow_complex at every bus, on the post-trip grid:
        the partials at each line's two ends, placed at those buses, and zero
        elsewhere; the tripped line's rows are exactly zero."""
        gen_p, gen_v = base_inputs
        net = grid.net.with_line_out("23-24")
        sol = solve_power_flow(net, gen_p, gen_v)
        ends = _flow_partials(net, sol.v_complex)
        assert ends.shape == (4, net.n_line)
        f, t = net.branches[:2]
        rows = np.arange(net.n_line)
        dl_dva = np.zeros((net.n_line, net.n_bus))
        dl_dvm = np.zeros((net.n_line, net.n_bus))
        dl_dva[rows, f], dl_dva[rows, t] = ends[0], ends[1]
        dl_dvm[rows, f], dl_dvm[rows, t] = ends[2], ends[3]
        h = 1e-7

        def flows(vm, va):
            return np.abs(line_flow_complex(net, vm * np.exp(1j * va)))

        for got, perturbed in ((dl_dva, "va"), (dl_dvm, "vm")):
            fd = np.zeros_like(got)
            for k in range(net.n_bus):
                step = np.zeros(net.n_bus)
                step[k] = h
                if perturbed == "va":
                    up, down = flows(sol.v, sol.theta + step), flows(sol.v, sol.theta - step)
                else:
                    up, down = flows(sol.v + step, sol.theta), flows(sol.v - step, sol.theta)
                fd[:, k] = (up - down) / (2 * h)
            np.testing.assert_allclose(got, fd, rtol=0, atol=1e-6)
            assert np.all(got[net.line_index("23-24")] == 0.0)


class TestStructure:
    def test_pv_bus_pins_own_voltage(self, grid, base_solution):
        """dv_g/dv_set at the regulated bus is exactly one."""
        net = grid.net
        S = compute_sensitivity(net, base_solution).matrix
        n_gen = net.n_gen
        for g, bus in enumerate(net.gen_bus_indices):
            assert S[bus, n_gen + g] == 1.0

    def test_slack_p_column_zero(self, grid, base_solution):
        """The slack absorbs P set-point changes: its column vanishes."""
        net = grid.net
        S = compute_sensitivity(net, base_solution).matrix
        slack_gen = next(i for i, g in enumerate(net.generators)
                         if net.bus_index(g.bus) == net.slack_index)
        assert np.all(S[:, slack_gen] == 0.0)

    def test_angle_gap_signs_split_by_breaker(self, grid, base_solution,
                                              base_inputs):
        """Injections on opposite sides of the monitored pair move the angle
        gap in opposite directions; verified against finite differences."""
        net = grid.net
        gen_p, gen_v = base_inputs
        S = compute_sensitivity(net, base_solution).matrix
        S_fd = fd_sensitivity(net, gen_p, gen_v, warm=base_solution)
        row = S[-1, :net.n_gen]
        row_fd = S_fd[-1, :net.n_gen]
        # G36 feeds bus 23, G33 (bus 33 behind 19) feeds the bus-24 side
        g36 = next(i for i, g in enumerate(net.generators) if g.bus == 36)
        g33 = next(i for i, g in enumerate(net.generators) if g.bus == 33)
        assert row[g36] * row[g33] < 0
        assert np.sign(row_fd[g36]) == np.sign(row[g36])
        assert np.sign(row_fd[g33]) == np.sign(row[g33])

    def test_dimensions(self, grid, base_solution):
        net = grid.net
        sm = compute_sensitivity(net, base_solution)
        assert sm.matrix.shape == (net.n_bus + net.n_line + 1, 2 * net.n_gen)
        assert np.all(np.isfinite(sm.matrix))

    def test_deterministic_recomputation(self, grid, base_solution):
        a = compute_sensitivity(grid.net, base_solution).matrix
        b = compute_sensitivity(grid.net, base_solution).matrix
        assert np.array_equal(a, b)

    def test_operating_point_of_other_network_rejected(self, grid):
        other = solve_power_flow(three_bus_net(), [0.0], [1.0])
        with pytest.raises(GridDataError, match="operating point"):
            compute_sensitivity(grid.net, other)

    @pytest.mark.parametrize("bad", [np.nan, 0.0])
    @pytest.mark.parametrize("use", ["sensitivity", "warm_start"])
    def test_bad_magnitude_refused_before_numpy_warns(self, grid, base_solution,
                                                      base_inputs, use, bad):
        """A PQ-bus magnitude that is NaN or 0 is refused with the usual typed
        error before any division by it: by the sensitivity at that point,
        and by a power flow warm-started from it."""
        op = replace(base_solution, v=base_solution.v.copy())
        op.v[5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if use == "sensitivity":
                with pytest.raises(VoltageCollapseProximityError):
                    compute_sensitivity(grid.net, op)
            else:
                with pytest.raises(PowerFlowDivergenceError) as err:
                    solve_power_flow(grid.net, *base_inputs, warm_start=op)
                assert err.value.iterations == 0

    def test_singular_jacobian_reported(self):
        """At a bus left with no in-service line and no shunt, the Jacobian
        has zero rows and no sensitivity exists."""
        op = solve_power_flow(three_bus_net(), [0.0], [1.0])
        with pytest.raises(VoltageCollapseProximityError, match="singular"):
            compute_sensitivity(three_bus_net(isolate_bus_3=True), op)


class TestPerturbedTopology:
    """The erased-line models of the robustness sweep."""

    @staticmethod
    def erased_sensitivity(net, line_id, gen_p, gen_v, warm_start=None):
        reduced = net.with_line_out(line_id)
        sol = solve_power_flow(reduced, gen_p, gen_v, warm_start=warm_start)
        return compute_sensitivity(reduced, sol)

    def test_far_line_close_to_nominal(self, grid, base_solution, base_inputs):
        gen_p, gen_v = base_inputs
        S0 = compute_sensitivity(grid.net, base_solution).matrix
        sm = self.erased_sensitivity(grid.net, "26-28", gen_p, gen_v,
                                     warm_start=base_solution)
        gap = np.linalg.norm(sm.matrix - S0) / np.linalg.norm(S0)
        assert gap < 0.5

    def test_islanding_removal_detected(self, grid):
        assert grid.net.with_line_out("2-30").islanded_buses() == (30,)

    def test_sweep_enumeration(self, grid, base_solution, base_inputs):
        """Every candidate line yields a matrix or an islanding skip."""
        gen_p, gen_v = base_inputs
        computed, skipped = 0, 0
        for ln in grid.net.lines:
            if ln.id == "23-24":
                continue
            if grid.net.with_line_out(ln.id).islanded_buses():
                skipped += 1
                continue
            self.erased_sensitivity(grid.net, ln.id, gen_p, gen_v,
                                    warm_start=base_solution)
            computed += 1
        assert computed + skipped == grid.net.n_line - 1
        assert computed > 30
        assert skipped > 0

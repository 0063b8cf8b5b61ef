"""Admittance matrix, power flow, measurements and topology edits."""

from dataclasses import replace

import numpy as np
import pytest

from gridofo.errors import (
    DegenerateLineError,
    GridDataError,
    PowerFlowDivergenceError,
)
from gridofo.network import (
    Bus,
    GenLocation,
    Line,
    NetworkModel,
    build_ybus,
    complex_voltage_gap,
    extract_measurement,
    line_admittances,
    line_flow_complex,
    solve_power_flow,
)

from conftest import two_bus_analytic_v2, two_bus_net


class TestYbus:
    def test_single_line_stamp(self):
        net = two_bus_net(r=0.01, x=0.1)
        Y = build_ybus(net)
        ys = 1.0 / complex(0.01, 0.1)
        assert Y[0, 1] == pytest.approx(-ys)
        assert Y[1, 0] == pytest.approx(-ys)
        assert Y[0, 0] == pytest.approx(ys)
        assert Y[1, 1] == pytest.approx(ys)

    def test_charging_splits_between_ends(self):
        net = two_bus_net()
        ln = net.lines[0]
        net2 = NetworkModel(
            buses=net.buses,
            lines=(Line(id=ln.id, from_bus=1, to_bus=2, r=ln.r, x=ln.x,
                        b_charging=0.4),),
            generators=net.generators, base_power=100.0,
            monitored_pair=(1, 2))
        dY = build_ybus(net2) - build_ybus(net)
        assert dY[0, 0] == pytest.approx(0.2j)
        assert dY[1, 1] == pytest.approx(0.2j)
        assert dY[0, 1] == 0.0

    def test_out_of_service_line_contributes_nothing(self, grid):
        net = grid.net
        reduced = net.with_line_out("23-24")
        k = net.line_index("23-24")
        ys = 1.0 / complex(net.lines[k].r, net.lines[k].x)
        dY = build_ybus(net) - build_ybus(reduced)
        f = net.bus_index(23)
        t = net.bus_index(24)
        assert dY[f, t] == pytest.approx(-ys)
        mask = np.ones(net.n_bus, dtype=bool)
        mask[[f, t]] = False
        assert np.all(dY[np.ix_(mask, mask)] == 0.0)

    def test_zero_impedance_line_rejected(self):
        with pytest.raises(DegenerateLineError):
            Line(id="bad", from_bus=1, to_bus=2, r=0.0, x=0.0)

    def test_symmetry(self, grid):
        Y = build_ybus(grid.net)
        assert np.allclose(Y, Y.T)

    @pytest.mark.parametrize("line_out", [None, "23-24"])
    def test_matches_per_line_stamp(self, grid, line_out):
        """The vectorized stamp equals a line-by-line stamp, to 1e-14 of the
        largest entry."""
        net = grid.net if line_out is None else grid.net.with_line_out(line_out)
        want = np.zeros((net.n_bus, net.n_bus), dtype=complex)
        for ln in net.lines:
            if ln.in_service:
                ys, ysh = line_admittances(ln)
                f, t = net.bus_index(ln.from_bus), net.bus_index(ln.to_bus)
                want[f, f] += ys + ysh
                want[t, t] += ys + ysh
                want[f, t] -= ys
                want[t, f] -= ys
        for i, b in enumerate(net.buses):
            want[i, i] += 1j * b.shunt_b
        got = build_ybus(net)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestPowerFlow:
    def test_two_bus_matches_analytic(self):
        net = two_bus_net(r=0.0, x=0.1, load_p=1.0, load_q=0.2)
        sol = solve_power_flow(net, [0.0], [1.0])
        v2 = two_bus_analytic_v2(0.1, 1.0, 0.2)
        assert sol.v_complex[1] == pytest.approx(v2, rel=1e-9)

    @pytest.mark.parametrize("loading", [(0.5, 0.1), (2.0, 0.5), (3.0, -0.3)])
    def test_two_bus_family(self, loading):
        p, q = loading
        net = two_bus_net(x=0.08, load_p=p, load_q=q)
        sol = solve_power_flow(net, [0.0], [1.0])
        v2 = two_bus_analytic_v2(0.08, p, q)
        assert sol.v_complex[1] == pytest.approx(v2, rel=1e-9)

    def test_ieee39_converges(self, base_solution):
        assert base_solution.residual <= 1e-10
        assert base_solution.iterations <= 10

    def test_residual_certificate(self, grid, base_solution):
        """Mismatch recomputed from scratch confirms the reported residual."""
        net = grid.net
        Y = build_ybus(net)
        V = base_solution.v_complex
        S = V * np.conj(Y @ V)
        P_spec = np.array([-b.load_p for b in net.buses])
        Q_spec = np.array([-b.load_q for b in net.buses])
        for g in net.generators:
            P_spec[net.bus_index(g.bus)] += g.p_set
        kinds = np.array([b.kind for b in net.buses])
        dP = np.abs(S.real - P_spec)[kinds != "slack"]
        dQ = np.abs(S.imag - Q_spec)[kinds == "PQ"]
        assert max(dP.max(), dQ.max()) <= 1e-8

    def test_power_balance(self, grid, base_solution):
        """Total injection equals total line + shunt losses (here: charging)."""
        net = grid.net
        V = base_solution.v_complex
        Y = build_ybus(net)
        S = V * np.conj(Y @ V)
        # sum of injections = network absorption; real part is the I2R loss
        loss = S.real.sum()
        assert loss >= 0.0
        assert loss < 2.0  # under 200 MW of series loss on a 6 GW system

    def test_warm_start_converges_faster(self, grid, base_solution):
        net = grid.net
        gen_p = [g.p_set for g in net.generators]
        gen_v = [g.v_set for g in net.generators]
        warm = solve_power_flow(net, gen_p, gen_v, warm_start=base_solution)
        assert warm.iterations <= base_solution.iterations

    def test_divergence_reported(self):
        net = two_bus_net(x=0.1, load_p=10.0, load_q=3.0)  # beyond the nose
        with pytest.raises(PowerFlowDivergenceError):
            solve_power_flow(net, [0.0], [1.0])

    def test_dimension_check(self, grid):
        with pytest.raises(GridDataError):
            solve_power_flow(grid.net, [0.0], [1.0])


class TestMeasurement:
    def test_vector_layout(self, grid, base_solution):
        m = extract_measurement(grid.net, base_solution)
        y = m.as_vector()
        assert y.size == grid.net.n_bus + grid.net.n_line + 1
        assert np.all(y[:grid.net.n_bus] == m.v)
        assert y[-1] == m.delta_theta

    def test_flows_nonnegative(self, grid, base_solution):
        m = extract_measurement(grid.net, base_solution)
        assert np.all(m.flows >= 0.0)

    def test_flows_match_per_line_formula(self, grid):
        net = grid.net.with_line_out("23-24")
        rng = np.random.default_rng(3)
        V = (rng.uniform(0.9, 1.1, net.n_bus)
             * np.exp(1j * rng.uniform(-0.5, 0.5, net.n_bus)))
        want = np.zeros(net.n_line, dtype=complex)
        for k, ln in enumerate(net.lines):
            if ln.in_service:
                ys, ysh = line_admittances(ln)
                f, t = net.bus_index(ln.from_bus), net.bus_index(ln.to_bus)
                want[k] = V[f] * np.conj(ys * (V[f] - V[t]) + ysh * V[f])
        got = line_flow_complex(net, V)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert got[net.line_index("23-24")] == 0

    def test_gap_identity(self, grid, base_solution):
        m = extract_measurement(grid.net, base_solution)
        a, b = grid.net.monitored_indices
        V = base_solution.v_complex
        assert complex_voltage_gap(m) == pytest.approx(abs(V[a] - V[b]), abs=1e-12)

    def test_flow_conservation_lossless(self):
        """On an r = 0 line, from-end and to-end active power agree."""
        net = two_bus_net(r=0.0, x=0.1)
        sol = solve_power_flow(net, [0.0], [1.0])
        S = line_flow_complex(net, sol.v_complex)
        assert S[0].real == pytest.approx(1.0, abs=1e-9)


class TestTopologyEdits:
    def test_with_line_out_is_pure(self, grid):
        net = grid.net
        reduced = net.with_line_out("23-24")
        assert net.lines[net.line_index("23-24")].in_service
        assert not reduced.lines[reduced.line_index("23-24")].in_service

    def test_load_argument_replaces_bus_loads(self, grid, base_solution):
        """A power flow given `load` equals, bit for bit, one on a model
        whose buses carry that load."""
        net = grid.net
        rng = np.random.default_rng(3)
        load = np.array([complex(b.load_p, b.load_q) for b in net.buses])
        load *= rng.uniform(0.95, 1.05, net.n_bus)
        loaded = replace(net, buses=tuple(
            replace(b, load_p=s.real, load_q=s.imag)
            for b, s in zip(net.buses, load)))
        gen_p = [g.p_set for g in net.generators]
        gen_v = [g.v_set for g in net.generators]
        for warm in (None, base_solution):
            got = solve_power_flow(net, gen_p, gen_v, warm_start=warm, load=load)
            want = solve_power_flow(loaded, gen_p, gen_v, warm_start=warm)
            for name in ("v", "theta", "p_inj", "q_inj"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert (got.residual, got.iterations) == (want.residual, want.iterations)
        with pytest.raises(GridDataError):
            solve_power_flow(net, gen_p, gen_v, load=load[:3])

    def test_cached_arrays_read_only(self, grid):
        """The arrays cached on a shared model cannot be edited by a caller."""
        net = grid.net
        for a in (*net.branches, net.gen_bus_indices):
            with pytest.raises(ValueError):
                a[0] = a[1]

    def test_components_detect_islands(self, grid):
        net = grid.net
        assert len(net.connected_components()) == 1
        assert net.islanded_buses() == ()
        # bus 30 hangs on the single transformer 2-30
        cut = net.with_line_out("2-30")
        comps = cut.connected_components()
        assert len(comps) == 2
        assert {30} in comps
        assert cut.islanded_buses() == (30,)

    def test_validation(self):
        with pytest.raises(GridDataError):
            NetworkModel(buses=(Bus(id=1, kind="slack"), Bus(id=1)),
                         lines=(), generators=(), base_power=100.0,
                         monitored_pair=(1, 1))
        with pytest.raises(GridDataError):
            NetworkModel(buses=(Bus(id=1),), lines=(),
                         generators=(GenLocation(bus=2, machine="G"),),
                         base_power=100.0, monitored_pair=(1, 1))

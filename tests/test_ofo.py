"""Projected-gradient controller: gradient, QP assembly, closed-loop descent."""

import numpy as np
import pytest

from gridofo.errors import GridDataError
from gridofo.network import Measurement
from gridofo.ofo import (
    OfoConfig,
    OfoState,
    assemble_projection_qp,
    default_config,
    objective_gradient,
    ofo_update,
)
from gridofo.qp import OPTIMAL, qp_solve
from gridofo.sensitivity import SensitivityMatrix


def make_measurement(v, flows, dtheta, pair=(0, 1)):
    return Measurement(v=np.asarray(v, dtype=float),
                       flows=np.asarray(flows, dtype=float),
                       delta_theta=float(dtheta), timestamp=0.0,
                       monitored_idx=pair)


def small_config(n_gen=2, n_bus=3, n_line=2, **over):
    base = dict(
        alpha=1.0,
        sampling_period=1.0,
        p_min=np.zeros(n_gen),
        p_max=np.ones(n_gen),
        v_min=np.full(n_gen, 0.9),
        v_max=np.full(n_gen, 1.1),
        out_v_min=np.full(n_bus, 0.0),
        out_v_max=np.full(n_bus, 2.0),
        flow_max=np.full(n_line, 100.0),
        rho=1e3,
    )
    base.update(over)
    return OfoConfig(**base)


def sens(matrix):
    return SensitivityMatrix(matrix=np.asarray(matrix, dtype=float))


class TestObjectiveGradient:
    def test_matches_numeric_gradient(self):
        """Central differences of (v_a - v_b)^2 + dtheta^2 over the output."""
        rng = np.random.default_rng(5)
        v = rng.uniform(0.95, 1.05, 4)
        flows = rng.uniform(0.0, 2.0, 3)
        dth = 0.2
        pair = (1, 3)

        def phi(y):
            va, vb = y[1], y[3]
            return (va - vb) ** 2 + y[-1] ** 2

        m = make_measurement(v, flows, dth, pair)
        grad = objective_gradient(m)
        y0 = m.as_vector()
        h = 1e-7
        for i in range(y0.size):
            e = np.zeros_like(y0)
            e[i] = h
            num = (phi(y0 + e) - phi(y0 - e)) / (2 * h)
            assert grad[i] == pytest.approx(num, abs=1e-6)

    def test_flows_do_not_enter(self):
        m = make_measurement([1.0, 1.0], [5.0, 7.0, 9.0], 0.1, (0, 1))
        grad = objective_gradient(m)
        assert np.all(grad[2:5] == 0.0)


class TestQpAssembly:
    def test_input_bounds_encode_next_iterate(self):
        """Rows say u_min <= u + alpha*w <= u_max: re-evaluate at the solution."""
        cfg = small_config(alpha=3.0)
        u = np.array([0.5, 0.2, 1.0, 1.05])
        m = make_measurement([1.0, 1.02, 0.98], [0.5, 0.4], 0.05, (0, 1))
        S = sens(np.ones((6, 4)) * 0.1)
        problem = assemble_projection_qp(cfg, u, m, S)
        sol = qp_solve(problem)
        assert sol.status == OPTIMAL
        u_next = u + 3.0 * sol.w
        assert np.all(u_next >= cfg.u_min - 1e-9)
        assert np.all(u_next <= cfg.u_max + 1e-9)

    def test_gradient_term_is_chain_rule(self):
        cfg = small_config()
        u = np.array([0.5, 0.5, 1.0, 1.0])
        m = make_measurement([1.05, 0.95, 1.0], [0.1, 0.2], 0.3, (0, 1))
        S_mat = np.arange(24.0).reshape(6, 4) / 10.0
        problem = assemble_projection_qp(cfg, u, m, sens(S_mat))
        np.testing.assert_allclose(problem.g,
                                   S_mat.T @ objective_gradient(m))

    def test_dimension_mismatch_rejected(self):
        cfg = small_config()
        m = make_measurement([1.0, 1.0, 1.0], [0.0, 0.0], 0.0)
        with pytest.raises(GridDataError):
            assemble_projection_qp(cfg, np.zeros(4), m, sens(np.zeros((5, 4))))
        with pytest.raises(GridDataError):  # u of the wrong size, S to match
            assemble_projection_qp(cfg, np.zeros(3), m, sens(np.zeros((6, 3))))

    def test_input_rows_built_once(self):
        """The input-bound rows alpha [I; -I] and the stacked bounds are the
        configuration's, shared read-only by every QP it assembles."""
        cfg = small_config(alpha=2.5)
        eye = np.eye(4)
        np.testing.assert_array_equal(cfg.input_rows, 2.5 * np.vstack([eye, -eye]))
        np.testing.assert_array_equal(cfg.u_min, [0.0, 0.0, 0.9, 0.9])
        np.testing.assert_array_equal(cfg.u_max, [1.0, 1.0, 1.1, 1.1])
        for name in ("input_rows", "u_min", "u_max"):
            a = getattr(cfg, name)
            assert getattr(cfg, name) is a
            with pytest.raises(ValueError):
                a.flat[0] = 0.0
        m = make_measurement([1.0, 1.0, 1.0], [0.0, 0.0], 0.0)
        problem = assemble_projection_qp(cfg, np.full(4, 0.5), m, sens(np.zeros((6, 4))))
        np.testing.assert_array_equal(problem.G_ineq[:8], cfg.input_rows)


class TestClosedLoopOnLinearPlant:
    """Synthetic plant y = S u + c with known optimum: the iteration must
    descend and converge onto the projected optimizer."""

    def run_loop(self, cfg, S_mat, c, u0, steps=60):
        u = np.asarray(u0, dtype=float)
        st = OfoState(u=u, active=True)
        n_bus = cfg.out_v_min.size
        n_line = cfg.flow_max.size
        hist = []
        for _ in range(steps):
            y = S_mat @ st.u + c
            m = make_measurement(y[:n_bus], y[n_bus:n_bus + n_line],
                                 y[-1], (0, 1))
            st = ofo_update(cfg, st, m, sens(S_mat))
            hist.append((st.u.copy(),
                         (y[0] - y[1]) ** 2 + y[-1] ** 2))
        return st, hist

    def plant(self):
        # 2 gens, 2 buses, 1 line; controllable voltage gap, neutral angle
        S = np.array([
            [0.0, 0.0, 1.0, 0.0],   # v_0 pinned by v-set-point 0
            [0.0, 0.0, 0.0, 1.0],   # v_1 pinned by v-set-point 1
            [0.1, -0.1, 0.0, 0.0],  # line flow from p set-points
            [0.5, -0.5, 0.0, 0.0],  # angle gap
        ])
        c = np.array([0.0, 0.0, 0.5, 0.01])
        return S, c

    def config(self):
        return small_config(n_gen=2, n_bus=2, n_line=1, alpha=0.4)

    def test_objective_decreases_and_converges(self):
        S, c = self.plant()
        cfg = self.config()
        u0 = np.array([0.5, 0.5, 1.05, 0.95])
        st, hist = self.run_loop(cfg, S, c, u0)
        phis = [p for _, p in hist]
        assert phis[-1] < 1e-6
        assert phis[-1] < phis[0] * 1e-3
        # v set-points close the voltage gap; the angle offset needs p
        y_final = S @ st.u + c
        assert abs(y_final[0] - y_final[1]) < 1e-3

    def test_iterates_respect_bounds_exactly(self):
        S, c = self.plant()
        cfg = self.config()
        u0 = np.array([0.0, 1.0, 0.9, 1.1])
        _, hist = self.run_loop(cfg, S, c, u0, steps=30)
        for u, _ in hist:
            assert np.all(u[:2] >= 0.0) and np.all(u[:2] <= 1.0)
            assert np.all(u[2:] >= 0.9) and np.all(u[2:] <= 1.1)

    def test_softening_handles_infeasible_outputs(self):
        """Output box far from reach: the softened QP still yields a step."""
        S, c = self.plant()
        cfg = small_config(n_gen=2, n_bus=2, n_line=1, alpha=0.4,
                           out_v_min=np.full(2, 1.5),
                           out_v_max=np.full(2, 1.6))
        u0 = np.array([0.5, 0.5, 1.0, 1.0])
        st, hist = self.run_loop(cfg, S, c, u0, steps=5)
        # voltages are driven toward the (unreachable) box, not away from it
        assert st.v_ofo[0] > 1.0
        assert st.v_ofo[1] > 1.0


class TestDefaultConfig:
    def test_contingency_study_defaults(self, grid):
        cfg = default_config(grid.net)
        assert cfg.alpha == 3.0
        assert cfg.sampling_period == 5.0
        assert np.all(cfg.p_min == 0.0) and np.all(cfg.p_max == 1.0)
        assert np.all(cfg.v_min == 0.9) and np.all(cfg.v_max == 1.1)
        assert cfg.flow_max.size == grid.net.n_line

    def test_override_scalar_broadcast(self, grid):
        cfg = default_config(grid.net, p_max=0.5)
        assert np.all(cfg.p_max == 0.5)

    def test_unknown_override_rejected(self, grid):
        with pytest.raises(GridDataError):
            default_config(grid.net, gamma=1.0)

    def test_override_shape_checked(self, grid):
        """A bound list must have its default's length; a right one is taken."""
        with pytest.raises(GridDataError, match="p_min"):
            default_config(grid.net, p_min=[0, 0])
        cfg = default_config(grid.net, p_min=[0.1] * grid.net.n_gen)
        assert cfg.p_min.shape == (grid.net.n_gen,) and np.all(cfg.p_min == 0.1)

    def test_bound_ordering_enforced(self):
        with pytest.raises(GridDataError):
            small_config(v_min=np.full(2, 1.2))

    @pytest.mark.parametrize("field,value", [
        ("alpha", np.nan), ("rho", np.inf), ("sampling_period", np.nan),
        ("p_max", np.full(2, np.nan)), ("flow_max", np.full(2, np.inf))])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(GridDataError):
            small_config(**{field: value})

"""Least-distance QP solver against exhaustive active-set enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridofo.errors import GridDataError, OfoStepError
from gridofo.qp import (
    INFEASIBLE,
    OPTIMAL,
    QpProblem,
    kkt_residuals,
    qp_solve,
)

from conftest import brute_force_qp, random_qp

# hypothesis draws near-degenerate constraint rows on which qp_solve's
# active-set steps overflow; the suite turns RuntimeWarning into an error,
# and here the properties checked are the solver's results, not its warnings
pytestmark = pytest.mark.filterwarnings("default::RuntimeWarning")


class TestBasics:
    def test_unconstrained(self):
        p = QpProblem(g=np.array([1.0, -2.0]), G_ineq=np.zeros((0, 2)),
                      h_ineq=np.zeros(0))
        sol = qp_solve(p)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.w, [-1.0, 2.0])

    def test_single_active_constraint(self):
        # minimize ||w + (1,1)||^2 s.t. w_1 <= -2: projection onto the plane
        p = QpProblem(g=np.array([1.0, 1.0]),
                      G_ineq=np.array([[1.0, 0.0]]), h_ineq=np.array([-2.0]))
        sol = qp_solve(p)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.w, [-2.0, -1.0], atol=1e-12)
        assert sol.active_set == (0,)

    def test_inactive_constraint_ignored(self):
        p = QpProblem(g=np.array([1.0]), G_ineq=np.array([[1.0]]),
                      h_ineq=np.array([5.0]))
        sol = qp_solve(p)
        np.testing.assert_allclose(sol.w, [-1.0])
        assert sol.active_set == ()

    def test_infeasible_detected(self):
        # w <= -1 and -w <= -1 cannot both hold
        p = QpProblem(g=np.array([0.0]),
                      G_ineq=np.array([[1.0], [-1.0]]),
                      h_ineq=np.array([-1.0, -1.0]))
        sol = qp_solve(p)
        assert sol.status == INFEASIBLE

    def test_data_validation(self):
        with pytest.raises(OfoStepError):
            QpProblem(g=np.array([np.nan]), G_ineq=np.zeros((0, 1)),
                      h_ineq=np.zeros(0))
        with pytest.raises(GridDataError):
            QpProblem(g=np.array([1.0]), G_ineq=np.ones((2, 1)),
                      h_ineq=np.ones(3))
        with pytest.raises(GridDataError):  # 3 columns for 2 unknowns
            QpProblem(g=np.zeros(2), G_ineq=np.ones((2, 3)), h_ineq=np.ones(3))


class TestAgainstBruteForce:
    def test_two_hundred_random_problems(self):
        rng = np.random.default_rng(2024)
        n_optimal = 0
        for _ in range(200):
            p = random_qp(rng)
            sol = qp_solve(p)
            ref = brute_force_qp(p)
            if ref is None:
                assert sol.status == INFEASIBLE
                continue
            assert sol.status == OPTIMAL
            n_optimal += 1
            np.testing.assert_allclose(sol.w, ref, atol=1e-8)
            res = kkt_residuals(p, sol)
            assert max(res.values()) <= 1e-8
        assert n_optimal > 100  # the generator must exercise the solver

    def test_degenerate_duplicate_constraints(self):
        """Repeated identical rows must not break the active-set logic."""
        p = QpProblem(g=np.array([2.0, 0.0]),
                      G_ineq=np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]),
                      h_ineq=np.array([-3.0, -3.0, -3.0]))
        sol = qp_solve(p)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.w, [-3.0, 0.0], atol=1e-10)
        res = kkt_residuals(p, sol)
        assert max(res.values()) <= 1e-8


class TestIllConditioned:
    """Counterexamples the property tests below once found, kept as fixed
    cases so a regression shows on every run rather than by chance."""

    def test_rounding_slack_on_active_row_is_not_a_violation(self):
        # a 2^-23 row drives |w| to ~3e7; the other active row then shows a
        # rounding slack of ~1e-9 that must not re-enter the iteration
        p = QpProblem(g=np.zeros(3),
                      G_ineq=np.array([[0.0, 0.0, 0.0], [2.0**-23, 0.0, 0.0],
                                       [-3.0, 0.0, 0.875]]),
                      h_ineq=np.array([0.0, -1.0, 0.0]))
        sol = qp_solve(p)
        assert sol.status == OPTIMAL
        assert sol.active_set == (1, 2)
        np.testing.assert_allclose(sol.w, [-2.0**23, 0.0, -3.0 * 2.0**23 / 0.875],
                                   rtol=1e-12)
        assert kkt_residuals(p, sol)["stationarity"] <= 1e-7

    def test_dependent_normal_moves_only_multipliers(self):
        # w_0 <= 0 duplicates the active -3 w_0 <= 0; stepping w along the
        # rounding residue of its projection used to throw w off by ~1e9
        p = QpProblem(g=np.zeros(2),
                      G_ineq=np.array([[0.0, 0.0], [1.0, 0.0], [2.0**-24, 1e-8],
                                       [-3.0, 0.0]]),
                      h_ineq=np.array([0.0, 0.0, -1.0, 0.0]))
        sol = qp_solve(p)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.w, [0.0, -1e8], rtol=1e-12, atol=1e-6)
        assert kkt_residuals(p, sol)["stationarity"] <= 1e-6

    def test_tiny_row_infeasibility_still_detected(self):
        p = QpProblem(g=np.zeros(2),
                      G_ineq=np.array([[0.0, -1.0], [1.0, 1.0], [-4.35737151e-21, 0.0]]),
                      h_ineq=np.array([0.0, 0.0, -1.0]))
        assert qp_solve(p).status == INFEASIBLE

    def test_tied_partial_step_keeps_complementarity(self):
        # the full and the blocking step tie on row 2; its multiplier must
        # not be stranded outside the active set
        p = QpProblem(g=np.array([-3.0, 0.0, 0.0]),
                      G_ineq=np.array([[0.0, 0.0, 0.0], [0.0, -0.5, 0.0],
                                       [2.0, 0.0, 0.0], [3.0, 2.0, 0.0]]),
                      h_ineq=np.array([0.0, -1.0, 0.0, 0.0]))
        sol = qp_solve(p)
        assert sol.status == OPTIMAL
        assert sol.active_set == (1, 3)
        np.testing.assert_allclose(sol.w, [-4.0 / 3.0, 2.0, 0.0], atol=1e-12)
        assert max(kkt_residuals(p, sol).values()) <= 1e-12


@st.composite
def qp_problems(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 6))
    fin = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
    g = np.array(draw(st.lists(fin, min_size=n, max_size=n)))
    G = np.array(draw(st.lists(st.lists(fin, min_size=n, max_size=n),
                               min_size=m, max_size=m))).reshape(m, n)
    h = np.array(draw(st.lists(fin, min_size=m, max_size=m)))
    return QpProblem(g=g, G_ineq=G, h_ineq=h)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(qp_problems())
    def test_kkt_certified_when_optimal(self, p):
        """Residuals scale with the conditioning of the solution: hypothesis
        generates nearly dependent or tiny constraint rows whose multipliers
        and iterates grow unboundedly, so additive residuals are checked
        relative to the solution magnitude and the complementarity product
        relative to the product of iterate and multiplier magnitudes."""
        sol = qp_solve(p)
        if sol.status == OPTIMAL:
            res = kkt_residuals(p, sol)
            w_mag = 1.0 + float(np.max(np.abs(sol.w), initial=0.0))
            lam_mag = 1.0 + float(np.max(np.abs(sol.lam), initial=0.0))
            additive = max(res["stationarity"], res["primal"], res["dual"])
            assert additive <= 1e-7 * (w_mag + lam_mag)
            assert res["complementarity"] <= 1e-7 * w_mag * lam_mag

    @settings(max_examples=150, deadline=None)
    @given(qp_problems())
    def test_objective_no_worse_than_feasible_origin(self, p):
        """When w = 0 is feasible the optimum cannot cost more than it."""
        sol = qp_solve(p)
        if p.h_ineq.size and np.min(p.h_ineq) < 0:
            return  # origin infeasible
        assert sol.status == OPTIMAL
        obj = float(np.dot(sol.w + p.g, sol.w + p.g))
        assert obj <= float(np.dot(p.g, p.g)) + 1e-7

    @settings(max_examples=100, deadline=None)
    @given(qp_problems())
    def test_deterministic(self, p):
        a = qp_solve(p)
        b = qp_solve(p)
        assert a.status == b.status
        assert np.array_equal(a.w, b.w)

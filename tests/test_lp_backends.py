"""The one LP/MILP path (HiGHS) against enumeration oracles and known optima.

Every model goes through ``to_arrays`` and one ``scipy.optimize.milp`` call.
``tests/oracles.py`` reads the same models' symbolic rows instead: vertex
enumeration for LPs and 0/1 enumeration for binary MILPs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp import LinearProgram, LPStatus, solve_with_scipy
from tests.oracles import binary_enumeration_milp, vertex_enumeration_lp


def _diet_lp() -> LinearProgram:
    m = LinearProgram("diet")
    x = m.add_variable("x", lower=0.0)
    y = m.add_variable("y", lower=0.0)
    m.add_constraint(2 * x + y >= 8)
    m.add_constraint(x + 2 * y >= 6)
    m.set_objective(3 * x + 2 * y, "min")
    return m


class TestScipyBackend:
    def test_simple_lp(self):
        sol = solve_with_scipy(_diet_lp())
        assert sol.is_optimal
        # Optimum at the intersection (10/3, 4/3): 3*10/3 + 2*4/3 = 38/3.
        assert sol.objective == pytest.approx(38.0 / 3.0, rel=1e-6)

    def test_infeasible_detected(self):
        m = LinearProgram()
        x = m.add_variable("x", lower=0.0, upper=1.0)
        m.add_constraint(x >= 2)
        m.set_objective(x, "min")
        assert solve_with_scipy(m).status == LPStatus.INFEASIBLE

    def test_unbounded_detected(self):
        m = LinearProgram()
        x = m.add_variable("x", lower=0.0)
        m.set_objective(-1 * x, "min")
        assert solve_with_scipy(m).status == LPStatus.UNBOUNDED

    def test_maximisation_sign(self):
        m = LinearProgram()
        x = m.add_variable("x", lower=0.0, upper=3.0)
        m.set_objective(2 * x + 1, "max")
        sol = solve_with_scipy(m)
        assert sol.objective == pytest.approx(7.0)
        assert sol["x"] == pytest.approx(3.0)

    def test_milp(self):
        m = LinearProgram()
        x = m.add_variable("x", lower=0.0, upper=10.0, integer=True)
        m.add_constraint(2 * x <= 7)
        m.set_objective(x, "max")
        sol = solve_with_scipy(m)
        assert sol.objective == pytest.approx(3.0)

    def test_free_integer_variable(self):
        # A ``lower=None`` bound must reach HiGHS as -inf, not NaN (which it
        # rejects as a model error, read back as "infeasible").
        m = LinearProgram()
        x = m.add_variable("x", lower=None, integer=True)
        m.add_constraint(x >= -3.5)
        m.set_objective(x, "min")
        sol = solve_with_scipy(m)
        assert sol.status == LPStatus.OPTIMAL
        assert sol.objective == pytest.approx(-3.0)
        assert sol["x"] == pytest.approx(-3.0)


class TestSimplexBackend:
    """Pure LPs, which HiGHS solves with its simplex, one case per kind of
    row and bound that ``to_arrays`` lowers."""

    def test_simple_lp_matches_scipy(self):
        model = _diet_lp()
        assert vertex_enumeration_lp(model) == pytest.approx(
            solve_with_scipy(model).objective, rel=1e-7
        )

    def test_infeasible(self):
        m = LinearProgram()
        x = m.add_variable("x", lower=None)
        m.add_constraint(x <= 1)
        m.add_constraint(x >= 2)
        m.set_objective(x, "min")
        assert solve_with_scipy(m).status == LPStatus.INFEASIBLE
        assert vertex_enumeration_lp(m) is None

    def test_unbounded(self):
        m = LinearProgram()
        x = m.add_variable("x", lower=None)
        m.add_constraint(x <= 3)
        m.set_objective(x, "min")
        assert solve_with_scipy(m).status == LPStatus.UNBOUNDED

    def test_free_variable(self):
        m = LinearProgram()
        x = m.add_variable("x", lower=None)
        m.add_constraint(x >= -4)
        m.set_objective(x, "min")
        sol = solve_with_scipy(m)
        assert sol.objective == pytest.approx(-4.0)

    def test_upper_bounded_variable(self):
        m = LinearProgram()
        x = m.add_variable("x", lower=0.0, upper=2.5)
        m.set_objective(-1 * x, "min")
        sol = solve_with_scipy(m)
        assert sol.objective == pytest.approx(-2.5)

    def test_equality_constraints(self):
        m = LinearProgram()
        x = m.add_variable("x", lower=0.0)
        y = m.add_variable("y", lower=0.0)
        m.add_constraint(x + y == 4)
        m.add_constraint(x - y == 2)
        m.set_objective(x + 2 * y, "min")
        sol = solve_with_scipy(m)
        assert sol.values["x"] == pytest.approx(3.0)
        assert sol.values["y"] == pytest.approx(1.0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_lps_agree_with_scipy(self, seed):
        rng = np.random.default_rng(seed)
        n_vars, n_cons = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        m = LinearProgram()
        xs = [m.add_variable(f"x{i}", lower=0.0, upper=float(rng.uniform(1, 10)))
              for i in range(n_vars)]
        for _ in range(n_cons):
            coeffs = rng.uniform(-1, 2, size=n_vars)
            expr = sum((float(c) * x for c, x in zip(coeffs, xs)),
                       0.0 * xs[0])
            m.add_constraint(expr <= float(rng.uniform(1, 10)))
        cost = rng.uniform(-1, 3, size=n_vars)
        m.set_objective(sum((float(c) * x for c, x in zip(cost, xs)), 0.0 * xs[0]),
                        "min")
        scipy_sol = solve_with_scipy(m)
        oracle = vertex_enumeration_lp(m)
        assert scipy_sol.status == LPStatus.OPTIMAL
        assert oracle is not None
        assert oracle == pytest.approx(scipy_sol.objective, rel=1e-6, abs=1e-6)


class TestBranchAndBound:
    """MILPs, which HiGHS solves by branch and cut."""

    def _knapsack(self, values, weights, capacity) -> LinearProgram:
        m = LinearProgram("knapsack")
        xs = [m.add_variable(f"x{i}", lower=0.0, upper=1.0, integer=True)
              for i in range(len(values))]
        m.add_constraint(
            sum((w * x for w, x in zip(weights, xs)), 0.0 * xs[0]) <= capacity
        )
        m.set_objective(sum((v * x for v, x in zip(values, xs)), 0.0 * xs[0]), "max")
        return m

    def test_knapsack_matches_scipy(self):
        model = self._knapsack([4, 3, 2, 5], [2, 3, 4, 5], 7)
        assert binary_enumeration_milp(model) == pytest.approx(
            solve_with_scipy(model).objective)

    def test_with_simplex_relaxation(self):
        """HiGHS solves the branch-and-cut relaxations with its dual simplex."""
        model = self._knapsack([6, 5, 4], [3, 2, 4], 5)
        assert solve_with_scipy(model).objective == pytest.approx(11.0)
        assert binary_enumeration_milp(model) == pytest.approx(11.0)

    def test_infeasible_milp(self):
        m = LinearProgram()
        x = m.add_variable("x", lower=0.0, upper=1.0, integer=True)
        m.add_constraint(x >= 2)
        m.set_objective(x, "min")
        assert solve_with_scipy(m).status == LPStatus.INFEASIBLE
        assert binary_enumeration_milp(m) is None

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_knapsacks_agree_with_scipy(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        values = rng.integers(1, 10, size=n).tolist()
        weights = rng.integers(1, 8, size=n).tolist()
        capacity = float(rng.integers(5, 20))
        model = self._knapsack(values, weights, capacity)
        assert binary_enumeration_milp(model) == pytest.approx(
            solve_with_scipy(model).objective
        )

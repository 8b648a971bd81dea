"""Tests of the LP modelling layer (expressions, constraints, lowering)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp.model import Constraint, LinearExpression, LinearProgram, Variable


class TestExpressions:
    def test_variable_is_an_expression(self):
        m = LinearProgram()
        x = m.add_variable("x")
        assert isinstance(x, LinearExpression)
        assert x.coeffs == {0: 1.0}

    def test_addition_and_scaling(self):
        m = LinearProgram()
        x, y = m.add_variable("x"), m.add_variable("y")
        expr = 2 * x + y * 3 + 1.5
        assert expr.coeffs == {0: 2.0, 1: 3.0}
        assert expr.constant == pytest.approx(1.5)

    def test_subtraction_and_negation(self):
        m = LinearProgram()
        x, y = m.add_variable("x"), m.add_variable("y")
        expr = x - 2 * y - 1.0
        assert expr.coeffs == {0: 1.0, 1: -2.0}
        assert expr.constant == pytest.approx(-1.0)
        neg = -expr
        assert neg.coeffs == {0: -1.0, 1: 2.0}

    def test_rsub_and_division(self):
        m = LinearProgram()
        x = m.add_variable("x")
        expr = 5 - x
        assert expr.coeffs == {0: -1.0}
        assert expr.constant == pytest.approx(5.0)
        half = x / 2
        assert half.coeffs == {0: 0.5}

    def test_expression_value(self):
        m = LinearProgram()
        x, y = m.add_variable("x"), m.add_variable("y")
        expr = 2 * x + 3 * y + 1
        assert expr.value([1.0, 2.0]) == pytest.approx(9.0)

    def test_invalid_multiplication(self):
        m = LinearProgram()
        x, y = m.add_variable("x"), m.add_variable("y")
        with pytest.raises(TypeError):
            _ = x * y  # nonlinear

    def test_comparisons_build_constraints(self):
        m = LinearProgram()
        x = m.add_variable("x")
        c1 = x <= 5
        c2 = x >= 1
        c3 = x == 3
        assert isinstance(c1, Constraint) and c1.sense == "<="
        assert isinstance(c2, Constraint) and c2.sense == ">="
        assert isinstance(c3, Constraint) and c3.sense == "=="

    def test_constraint_violation(self):
        m = LinearProgram()
        x = m.add_variable("x")
        c = x <= 5
        assert c.violation([4.0]) == pytest.approx(0.0)
        assert c.violation([7.0]) == pytest.approx(2.0)
        c_eq = x == 3
        assert c_eq.violation([2.0]) == pytest.approx(1.0)


class TestLinearProgram:
    def test_variable_bounds_validation(self):
        m = LinearProgram()
        with pytest.raises(ValueError):
            m.add_variable("x", lower=2.0, upper=1.0)

    def test_free_variable_with_an_upper_bound(self):
        m = LinearProgram()
        x = m.add_variable("x", lower=None, upper=5.0)
        assert x.lower is None and x.upper == 5.0
        arrays = m.to_arrays()
        np.testing.assert_array_equal(arrays["lower"], [-np.inf])
        np.testing.assert_array_equal(arrays["upper"], [5.0])

    def test_add_constraint_type_check(self):
        m = LinearProgram()
        x = m.add_variable("x")
        with pytest.raises(TypeError):
            m.add_constraint(x)  # an expression, not a constraint

    def test_objective_sense_validation(self):
        m = LinearProgram()
        x = m.add_variable("x")
        with pytest.raises(ValueError):
            m.set_objective(x, "maximize-ish")

    def test_to_arrays_minimisation(self):
        m = LinearProgram()
        x = m.add_variable("x", lower=0.0, upper=4.0)
        y = m.add_variable("y", lower=1.0)
        m.add_constraint(x + 2 * y <= 10)
        m.add_constraint(x - y >= -2)
        m.add_constraint(x + y == 5)
        m.set_objective(3 * x + y, "min")
        arrays = m.to_arrays()
        np.testing.assert_allclose(arrays["c"], [3.0, 1.0])
        assert arrays["A_ub"].shape == (2, 2)
        np.testing.assert_allclose(arrays["A_ub"][0], [1.0, 2.0])
        np.testing.assert_allclose(arrays["b_ub"], [10.0, 2.0])
        np.testing.assert_allclose(arrays["A_ub"][1], [-1.0, 1.0])
        np.testing.assert_allclose(arrays["A_eq"], [[1.0, 1.0]])
        np.testing.assert_allclose(arrays["b_eq"], [5.0])
        np.testing.assert_array_equal(arrays["lower"], [0.0, 1.0])
        np.testing.assert_array_equal(arrays["upper"], [4.0, np.inf])
        assert not arrays["maximize"]

    def test_to_arrays_maximisation_negates(self):
        m = LinearProgram()
        x = m.add_variable("x")
        m.set_objective(2 * x + 1, "max")
        arrays = m.to_arrays()
        np.testing.assert_allclose(arrays["c"], [-2.0])
        assert arrays["offset"] == pytest.approx(-1.0)
        assert arrays["maximize"]

    def test_constraint_constant_moves_to_rhs(self):
        m = LinearProgram()
        x = m.add_variable("x")
        m.add_constraint(x + 3 <= 5)
        arrays = m.to_arrays()
        np.testing.assert_allclose(arrays["b_ub"], [2.0])

    def test_integrality_flags(self):
        m = LinearProgram()
        m.add_variable("x", integer=True)
        m.add_variable("y")
        arrays = m.to_arrays()
        np.testing.assert_array_equal(arrays["integrality"], [1, 0])
        assert m.has_integer_variables()

    def test_add_variables_bulk(self):
        m = LinearProgram()
        xs = m.add_variables(["a", "b", "c"], lower=0.0, upper=1.0)
        assert len(xs) == 3
        assert m.num_variables == 3

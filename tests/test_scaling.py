"""Tests of the polynomial-vs-exponential scaling probes."""

from __future__ import annotations

import pytest

from repro.complexity.scaling import (
    ScalingPoint,
    _chain_problem,
    fit_growth_exponent,
    measure_discrete_exact_scaling,
    measure_tricrit_chain_scaling,
    measure_vdd_lp_scaling,
)
from repro.core.problems import BiCritProblem
from repro.core.speeds import VddHoppingSpeeds
from repro.discrete.vdd_lp import build_vdd_lp


class TestProbes:
    def test_vdd_lp_scaling_points(self):
        points = measure_vdd_lp_scaling([3, 6], seed=1)
        assert len(points) == 2
        assert points[0].num_tasks == 3
        # The LP size is the solved model's, read back from the solve.
        _, mapping, platform, deadline = _chain_problem(3, 1, VddHoppingSpeeds(
            (0.2, 0.4, 0.6, 0.8, 1.0)))
        model, _, _ = build_vdd_lp(BiCritProblem(mapping=mapping, platform=platform,
                                                 deadline=deadline))
        assert points[0].work_units == model.num_variables
        # LP size grows linearly with the number of tasks (modes fixed).
        assert points[1].work_units == pytest.approx(2 * points[0].work_units)
        assert all(p.energy > 0 for p in points)

    def test_discrete_exact_scaling_bruteforce(self):
        points = measure_discrete_exact_scaling([3, 5], seed=1, modes=(0.5, 1.0))
        assert points[0].work_units == pytest.approx(2 ** 3)
        assert points[1].work_units == pytest.approx(2 ** 5)

    def test_tricrit_chain_scaling(self):
        points = measure_tricrit_chain_scaling([3, 4], seed=1)
        assert points[0].work_units == pytest.approx(2 ** 3)
        assert points[1].work_units == pytest.approx(2 ** 4)


class TestGrowthFit:
    def test_exponential_data_identified(self):
        points = [ScalingPoint(n, 0.0, float(2 ** n), 1.0) for n in (4, 6, 8, 10, 12)]
        fit = fit_growth_exponent(points)
        assert fit["exponential_fits_better"]
        assert fit["exponential_rate"] == pytest.approx(0.693, rel=1e-2)

    def test_polynomial_data_identified(self):
        points = [ScalingPoint(n, 0.0, float(n ** 2), 1.0) for n in (4, 8, 16, 32, 64)]
        fit = fit_growth_exponent(points)
        assert not fit["exponential_fits_better"]
        assert fit["polynomial_degree"] == pytest.approx(2.0, rel=1e-6)

    def test_end_to_end_complexity_contrast(self):
        exact = measure_discrete_exact_scaling([3, 4, 5, 6, 7], seed=2,
                                               modes=(0.5, 1.0))
        lp = measure_vdd_lp_scaling([3, 6, 12, 24], seed=2, modes=(0.5, 1.0))
        exact_fit = fit_growth_exponent(exact)
        lp_fit = fit_growth_exponent(lp)
        assert exact_fit["exponential_fits_better"]
        assert not lp_fit["exponential_fits_better"]
        assert lp_fit["polynomial_degree"] < 2.0

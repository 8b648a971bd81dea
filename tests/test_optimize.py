"""Tests of the optimisation substrate (allocation) and of the bisection
oracles in ``tests/oracles.py`` it is checked against."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimize.allocation import (
    allocate_durations,
    allocate_durations_with_bounds,
    equal_speed_durations,
)
from tests.oracles import (
    bisect_root,
    bisection_waterfill,
    expand_bracket,
    solve_monotone_increasing,
)


class TestBisection:
    def test_root_of_polynomial(self):
        root = bisect_root(lambda x: x ** 3 - 2.0, 0.0, 2.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-9)

    def test_endpoints_as_roots(self):
        assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0
        assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            bisect_root(lambda x: x + 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            bisect_root(lambda x: x, 1.0, 0.0)

    def test_expand_bracket(self):
        lo, hi = expand_bracket(lambda x: x - 10.0, 1.0)
        assert lo == 1.0 and hi >= 10.0

    def test_solve_monotone_increasing(self):
        assert solve_monotone_increasing(lambda x: x ** 2, 4.0, 0.0, 10.0) == pytest.approx(2.0)

    def test_solve_monotone_saturates_at_bounds(self):
        assert solve_monotone_increasing(lambda x: x, -5.0, 0.0, 1.0) == 0.0
        assert solve_monotone_increasing(lambda x: x, 5.0, 0.0, 1.0) == 1.0


class TestAllocation:
    def test_unbounded_gives_equal_speed(self):
        weights = [1.0, 2.0, 3.0]
        result = allocate_durations(weights, 12.0)
        np.testing.assert_allclose(result.durations, [2.0, 4.0, 6.0])
        np.testing.assert_allclose(result.speeds, [0.5, 0.5, 0.5])
        # Energy = sum w * f^2 = 6 * 0.25.
        assert result.energy == pytest.approx(1.5)

    def test_tiny_weight_keeps_a_finite_energy(self):
        # w^3 / d^2 underflows to 0/0 here; the speed form w * (w/d)^2 not.
        weights = [1.0, 1e-300]
        result = allocate_durations_with_bounds(
            weights, 4.0, [1.0, 1e-300], [10.0, 1e-299])
        assert result.energy == pytest.approx(1.0 / 4.0 ** 2, rel=1e-9)

    def test_equal_speed_helper(self):
        np.testing.assert_allclose(equal_speed_durations([1.0, 3.0], 8.0), [2.0, 6.0])
        np.testing.assert_allclose(equal_speed_durations([0.0, 0.0], 8.0), [0.0, 0.0])

    def test_fmax_saturation(self):
        # Deadline so tight that the required uniform speed exceeds fmax for
        # no task individually but the bound still binds overall.
        result = allocate_durations([4.0, 4.0], 8.0, fmax=1.0)
        np.testing.assert_allclose(result.durations, [4.0, 4.0])
        assert result.saturated_lower.all()

    def test_fmin_saturation_when_deadline_loose(self):
        result = allocate_durations([1.0, 1.0], 100.0, fmin=0.5, fmax=1.0)
        np.testing.assert_allclose(result.speeds, [0.5, 0.5])
        assert result.total_time < 100.0
        assert result.saturated_upper.all()

    def test_infeasible_deadline_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            allocate_durations([10.0, 10.0], 5.0, fmax=1.0)

    def test_zero_weights(self):
        result = allocate_durations([0.0, 2.0], 4.0)
        assert result.durations[0] == 0.0
        assert result.durations[1] == pytest.approx(4.0)

    def test_all_zero_weights(self):
        result = allocate_durations([0.0, 0.0], 4.0)
        assert result.energy == 0.0
        assert result.total_time == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            allocate_durations([1.0], 0.0)
        with pytest.raises(ValueError):
            allocate_durations([-1.0], 2.0)
        with pytest.raises(ValueError):
            allocate_durations([1.0], 2.0, exponent=1.0)
        with pytest.raises(ValueError):
            allocate_durations([1.0], 2.0, fmin=2.0, fmax=1.0)

    def test_per_task_bounds(self):
        weights = np.array([2.0, 2.0])
        lower = np.array([0.5, 2.0])   # second task forced to run fast at most 1.0
        upper = np.array([4.0, 2.0])   # and exactly duration 2
        result = allocate_durations_with_bounds(weights, 6.0, lower, upper)
        assert result.durations[1] == pytest.approx(2.0)
        assert 0.5 <= result.durations[0] <= 4.0

    def test_partial_clamping_with_heterogeneous_bounds(self):
        # Task 0 may not run faster than 1.0 (duration >= 4) while task 1 may
        # run up to speed 2.0; the optimum pins task 0 at its bound and gives
        # the remaining time to task 1.
        weights = np.array([4.0, 4.0])
        lower = np.array([4.0, 2.0])
        upper = np.array([40.0, 40.0])
        result = allocate_durations_with_bounds(weights, 7.0, lower, upper)
        assert result.durations[0] == pytest.approx(4.0)
        assert result.durations[1] == pytest.approx(3.0)
        assert result.saturated_lower[0]
        assert not result.saturated_lower[1]

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=6),
           st.floats(min_value=1.2, max_value=4.0))
    @settings(max_examples=50, deadline=None)
    def test_allocation_optimality_property(self, weights, slack):
        """The allocation never uses more than the deadline, meets the bounds,
        and has energy no larger than the uniform-speed feasible schedule."""
        weights = np.asarray(weights)
        deadline = slack * float(np.sum(weights))  # uniform speed 1/slack < 1 = fmax
        result = allocate_durations(weights, deadline, fmin=0.05, fmax=1.0)
        assert result.total_time <= deadline * (1 + 1e-9)
        speeds = result.speeds
        positive = weights > 0
        assert np.all(speeds[positive] <= 1.0 + 1e-9)
        assert np.all(speeds[positive] >= 0.05 - 1e-9)
        uniform_speed = max(float(np.sum(weights)) / deadline, 0.05)
        uniform_energy = float(np.sum(weights * uniform_speed ** 2))
        assert result.energy <= uniform_energy + 1e-6 * max(1.0, uniform_energy)


@st.composite
def waterfill_cases(draw):
    """Bounded water-fill inputs built like the TRI-CRIT restricted solve:
    ``lower = eff/fmax``, ``upper = eff/floor`` with a per-task floor (or
    none: an infinite upper bound, or ``floor == fmax``: a zero-width
    interval), zero-weight tasks at ``[0, 0]``, and a deadline anywhere
    from just above the minimum time to past the maximum."""
    fmax = 1.0
    n = draw(st.integers(min_value=1, max_value=8))
    eff = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-2, max_value=10.0)),
        min_size=n, max_size=n)))
    floors = np.array(draw(st.lists(st.one_of(
        st.just(0.0), st.just(fmax), st.floats(min_value=0.05, max_value=fmax)),
        min_size=n, max_size=n)))
    lower = eff / fmax
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = np.where(eff > 0, eff / floors, 0.0)
    positive = eff > 0
    min_time = float(np.sum(lower))
    max_time = float(np.sum(upper[positive]))
    kind = draw(st.sampled_from(["between", "tight", "loose"]))
    if kind == "tight" or min_time <= 0.0:
        deadline = max(min_time, 1e-3) * (1.0 + draw(st.sampled_from(
            [0.0, 1e-13, 1e-11, 1e-9])))
    elif kind == "loose" and np.isfinite(max_time):
        deadline = max_time * draw(st.floats(min_value=1.0, max_value=3.0))
    else:
        deadline = min_time * draw(st.floats(min_value=1.0 + 1e-9,
                                             max_value=20.0))
    return eff, lower, upper, deadline


class TestExactWaterfill:
    @given(waterfill_cases(), st.sampled_from([2.0, 3.0]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_bisection_oracle(self, case, exponent):
        eff, lower, upper, deadline = case
        result = allocate_durations_with_bounds(eff, deadline, lower, upper,
                                                exponent=exponent)
        positive = eff > 0
        d = result.durations
        assert np.all(d[~positive] == 0.0)
        assert np.all(d[positive] >= lower[positive])
        assert np.all(d[positive] <= upper[positive])
        # The whole deadline is used, unless every task sits at its bound.
        at_upper = np.array_equal(d[positive], upper[positive])
        at_lower = np.array_equal(d[positive], lower[positive])
        assert at_upper or at_lower or \
            abs(result.total_time - deadline) <= 1e-12 * deadline
        if at_lower or not np.any(positive):
            return  # the degenerate point, not a fill
        # The oracle bisects far below its default tolerance, so its own
        # error sits under the 1e-12 held here.
        _, energy = bisection_waterfill(eff, deadline, lower, upper,
                                        exponent=exponent, tol=1e-15)
        assert abs(result.energy - energy) <= 1e-12 * energy

    def test_saturation_is_read_from_the_clip(self):
        weights = np.array([1.0, 2.0, 4.0])
        lower = weights / 2.0
        upper = np.array([1.0, np.inf, 4.0])
        result = allocate_durations_with_bounds(weights, 10.0, lower, upper)
        assert list(result.saturated_upper) == [True, False, True]
        assert not np.any(result.saturated_lower)
        assert list(result.durations) == pytest.approx([1.0, 5.0, 4.0],
                                                       rel=1e-15)

"""Tests of the dynamic-energy model (Section II.c of the paper)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.energy import (
    EnergyModel,
    continuous_lower_bound_single_chain,
    energy_for_duration,
    reexecution_energy,
    schedule_energy,
    task_energy,
)


class TestEnergyModel:
    def test_default_is_cube_law(self):
        model = EnergyModel()
        assert model.exponent == 3.0
        assert model.power(2.0) == pytest.approx(8.0)

    def test_task_energy_formula(self):
        # E = w * f^2 with the cube law.
        assert task_energy(4.0, 0.5) == pytest.approx(4.0 * 0.25)
        assert task_energy(1.0, 1.0) == pytest.approx(1.0)

    def test_task_energy_vectorised(self):
        model = EnergyModel()
        w = np.array([1.0, 2.0, 3.0])
        f = np.array([1.0, 0.5, 2.0])
        np.testing.assert_allclose(model.task_energy(w, f), w * f ** 2)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            EnergyModel(exponent=1.0)
        with pytest.raises(ValueError):
            EnergyModel(static_power=-1.0)

    def test_task_energy_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            task_energy(1.0, 0.0)

    def test_energy_for_duration_matches_constant_speed(self):
        # Executing w units in d time at constant speed w/d.
        w, d = 3.0, 2.0
        expected = w * (w / d) ** 2
        assert energy_for_duration(w, d) == pytest.approx(expected)

    def test_reexecution_counts_both_executions(self):
        assert reexecution_energy(2.0, 0.5, 0.8) == pytest.approx(
            2.0 * 0.25 + 2.0 * 0.64
        )

    def test_interval_energy(self):
        model = EnergyModel()
        intervals = [(0.5, 2.0), (1.0, 1.0)]
        assert model.interval_energy(intervals) == pytest.approx(0.125 * 2 + 1.0)
        with pytest.raises(ValueError):
            model.interval_energy([(0.5, -1.0)])

    def test_static_energy(self):
        model = EnergyModel(static_power=0.3)
        assert model.static_energy(4, 10.0) == pytest.approx(12.0)

    def test_schedule_energy_helper(self):
        records = [(2.0, [1.0]), (3.0, [0.5, 0.5])]
        assert schedule_energy(records) == pytest.approx(2.0 + 3.0 * 0.25 * 2)

    def test_chain_lower_bound(self):
        # (sum w)^3 / D^2
        assert continuous_lower_bound_single_chain([1.0, 2.0, 3.0], 4.0) == pytest.approx(
            6.0 ** 3 / 16.0
        )
        with pytest.raises(ValueError):
            continuous_lower_bound_single_chain([1.0], 0.0)

    def test_alternative_exponent(self):
        model = EnergyModel(exponent=2.0)
        assert model.task_energy(4.0, 0.5) == pytest.approx(2.0)
        assert model.energy_for_duration(4.0, 2.0) == pytest.approx(8.0)

    def test_tiny_weight_and_duration_do_not_underflow(self):
        # w^3 and d^2 both underflow to 0.0 here; w * (w/d)^2 does not.
        assert EnergyModel().energy_for_duration(3e-181, 3e-181) == \
            pytest.approx(3e-181)


class TestEnergyProperties:
    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=80, deadline=None)
    def test_energy_increases_with_speed(self, weight, speed):
        assert task_energy(weight, speed * 1.1) > task_energy(weight, speed)

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=0.01, max_value=10.0),
           st.floats(min_value=1.01, max_value=3.0))
    @settings(max_examples=80, deadline=None)
    def test_energy_decreases_with_longer_duration(self, weight, duration, stretch):
        assert energy_for_duration(weight, duration * stretch) < energy_for_duration(
            weight, duration
        )

    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.1, max_value=1.0),
           st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_splitting_work_at_two_speeds_never_beats_average(self, weight, f1, f2):
        """Convexity: running half the work at f1 and half at f2 costs at least
        as much energy as the single speed with the same total time."""
        model = EnergyModel()
        half = weight / 2.0
        split_energy = model.task_energy(half, f1) + model.task_energy(half, f2)
        total_time = half / f1 + half / f2
        uniform_energy = model.energy_for_duration(weight, total_time)
        assert split_energy >= uniform_energy - 1e-9 * max(1.0, uniform_energy)

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=6),
           st.floats(min_value=1.0, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_chain_lower_bound_is_below_any_uniform_speed_schedule(self, weights, deadline):
        total = sum(weights)
        bound = continuous_lower_bound_single_chain(weights, deadline)
        # Any speed that meets the deadline costs at least the bound.
        speed = total / deadline
        for factor in (1.0, 1.1, 1.5, 2.0):
            energy = sum(task_energy(w, speed * factor) for w in weights)
            assert energy >= bound - 1e-9 * max(1.0, bound)

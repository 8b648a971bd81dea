"""Tests of the transient-fault reliability model (Section II.b, equation (1))."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.reliability import ReliabilityModel, _wright_omega, equal_reexecution_floor
from tests.oracles import bisection_floor


@pytest.fixture
def model() -> ReliabilityModel:
    return ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=1e-4, sensitivity=3.0)


class TestFaultRate:
    def test_rate_at_fmax_is_lambda0(self, model):
        assert model.fault_rate(1.0) == pytest.approx(1e-4)

    def test_rate_at_fmin_is_scaled_by_exp_d(self, model):
        assert model.fault_rate(0.1) == pytest.approx(1e-4 * math.exp(3.0))

    def test_rate_decreases_with_speed(self, model):
        speeds = np.linspace(0.1, 1.0, 20)
        rates = model.fault_rate(speeds)
        assert np.all(np.diff(rates) < 0)

    def test_zero_sensitivity_means_constant_rate(self):
        model = ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=1e-4, sensitivity=0.0)
        assert model.fault_rate(0.1) == pytest.approx(model.fault_rate(1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            ReliabilityModel(fmin=0.0, fmax=1.0)
        with pytest.raises(ValueError):
            ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=-1.0)
        with pytest.raises(ValueError):
            ReliabilityModel(fmin=0.1, fmax=1.0, sensitivity=-0.5)
        with pytest.raises(ValueError):
            ReliabilityModel(fmin=0.1, fmax=1.0, frel=2.0)


class TestReliability:
    def test_equation_one(self, model):
        # R_i(f) = 1 - lambda0 * exp(d*(fmax-f)/(fmax-fmin)) * w/f.
        w, f = 5.0, 0.5
        expected = 1.0 - 1e-4 * math.exp(3.0 * (1.0 - 0.5) / 0.9) * w / f
        assert model.reliability(w, f) == pytest.approx(expected)

    def test_reliability_increases_with_speed(self, model):
        w = 3.0
        speeds = np.linspace(0.1, 1.0, 15)
        rel = model.reliability(w, speeds)
        assert np.all(np.diff(rel) > 0)

    def test_default_threshold_is_reliability_at_fmax(self, model):
        w = 2.0
        assert model.frel == pytest.approx(1.0)
        assert model.threshold(w) == pytest.approx(model.reliability(w, 1.0))

    def test_single_execution_needs_at_least_frel(self, model):
        w = 2.0
        assert model.single_execution_ok(w, model.frel)
        assert model.single_execution_ok(w, model.frel + 1e-9)
        assert not model.single_execution_ok(w, 0.5)

    def test_reexecution_reliability_formula(self, model):
        w, f1, f2 = 2.0, 0.4, 0.6
        p1 = model.failure_probability(w, f1)
        p2 = model.failure_probability(w, f2)
        assert model.reexecution_reliability(w, f1, f2) == pytest.approx(1.0 - p1 * p2)

    def test_reexecution_can_beat_threshold_at_low_speed(self, model):
        w = 2.0
        slow = 0.4
        assert not model.single_execution_ok(w, slow)
        assert model.reexecution_ok(w, slow, slow)

    def test_min_equal_reexecution_speed(self, model):
        w = 3.0
        f_star = model.min_equal_reexecution_speed(w)
        assert model.fmin <= f_star <= model.frel
        # At the returned speed the constraint holds; slightly below it fails
        # (unless it is already clipped at fmin).
        assert model.reexecution_ok(w, f_star, f_star, tol=1e-9)
        if f_star > model.fmin + 1e-9:
            assert not model.reexecution_ok(w, f_star * 0.98, f_star * 0.98)

    def test_custom_frel_threshold(self):
        model = ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=1e-4, frel=0.7)
        w = 2.0
        assert model.single_execution_ok(w, 0.7)
        assert not model.single_execution_ok(w, 0.6)

    def test_zero_lambda_gives_perfect_reliability(self):
        model = ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=0.0)
        assert model.reliability(5.0, 0.1) == pytest.approx(1.0)
        assert model.min_equal_reexecution_speed(5.0) == pytest.approx(0.1)

    def test_failure_probability_clipped_to_one(self):
        model = ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=10.0, sensitivity=5.0)
        assert model.failure_probability(100.0, 0.1) == pytest.approx(1.0)

    def test_speed_must_be_positive(self, model):
        with pytest.raises(ValueError):
            model.failure_probability(1.0, 0.0)


class TestReliabilityProperties:
    @given(st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=0.11, max_value=0.99))
    @settings(max_examples=80, deadline=None)
    def test_reexecution_at_least_as_reliable_as_single(self, weight, speed):
        model = ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=1e-3, sensitivity=4.0)
        single = model.reliability(weight, speed)
        double = model.reexecution_reliability(weight, speed, speed)
        assert double >= single - 1e-12

    @given(st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_min_reexec_speed_below_frel(self, weight):
        model = ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=1e-3, sensitivity=4.0)
        f_star = model.min_equal_reexecution_speed(weight)
        assert model.fmin - 1e-12 <= f_star <= model.frel + 1e-12
        assert model.reexecution_ok(weight, f_star, f_star, tol=1e-9)

    @given(st.floats(min_value=0.1, max_value=20.0),
           st.floats(min_value=0.15, max_value=1.0),
           st.floats(min_value=1.0, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_heavier_tasks_are_less_reliable(self, weight, speed, factor):
        model = ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=1e-3)
        assert model.reliability(weight * factor, speed) <= model.reliability(weight, speed) + 1e-12


@st.composite
def floor_models(draw):
    """A reliability model and a weight, spans down to a zero range."""
    fmin = draw(st.floats(min_value=0.05, max_value=2.0))
    span = draw(st.one_of(st.just(0.0),
                          st.floats(min_value=1e-9, max_value=1e-6),
                          st.floats(min_value=1e-6, max_value=5.0)))
    fmax = fmin + span
    frel = draw(st.one_of(st.just(fmax),
                          st.floats(min_value=0.0, max_value=1.0).map(
                              lambda t: min(fmax, fmin + t * span))))
    lambda0 = draw(st.one_of(st.just(0.0),
                             st.floats(min_value=1e-8, max_value=10.0)))
    sensitivity = draw(st.one_of(st.just(0.0),
                                 st.floats(min_value=0.0, max_value=60.0)))
    weight = draw(st.floats(min_value=1e-3, max_value=1e3))
    return ReliabilityModel(fmin, fmax, lambda0, sensitivity, frel), weight


def model_columns(models):
    return [np.array([getattr(m, k) for m in models])
            for k in ("fmin", "fmax", "lambda0", "sensitivity", "frel")]


class TestClosedFormFloor:
    """The closed form ``W0(cK)/c`` against the bisection it replaced."""

    @given(floor_models())
    @example((ReliabilityModel(0.1, 1.0, 1e-4, 0.0), 3.0))       # c = 0
    @example((ReliabilityModel(0.5, 0.5, 1e-4, 3.0), 3.0))       # c = 0
    @example((ReliabilityModel(0.1, 1.0, 0.0, 3.0), 3.0))        # lambda0 = 0
    @example((ReliabilityModel(0.1, 1.0, 10.0, 5.0), 100.0))     # p(frel) = 1
    @example((ReliabilityModel(0.1, 1.0, 1e-3, 4.0, 0.6), 7.0))  # frel < fmax
    @example((ReliabilityModel(0.3, 0.3 + 1e-7, 1e-3, 60.0), 9.0))
    @example((ReliabilityModel(1.0, 1.000000001, 1.0, 5e-324), 1.0))  # subnormal c
    @settings(max_examples=300, deadline=None)
    def test_matches_the_bisection(self, case):
        model, weight = case
        oracle = bisection_floor(model, weight)
        floor = model.min_equal_reexecution_speed(weight)
        assert abs(floor - oracle) <= 1e-12 * oracle
        assert model.fmin <= floor <= model.frel

    @given(floor_models(), st.lists(floor_models(), min_size=1, max_size=40),
           st.integers(min_value=0, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_scalar_and_batch_floors_are_identical(self, case, others, at):
        model, weight = case
        scalar = model.min_equal_reexecution_speed(weight)
        [alone] = equal_reexecution_floor(weight, *model_columns([model]))
        at = min(at, len(others))
        cases = others[:at] + [case] + others[at:]
        wide = equal_reexecution_floor(np.array([w for _, w in cases]),
                                       *model_columns([m for m, _ in cases]))
        assert scalar == alone == wide[at]


def ordered_bits(x: np.ndarray) -> np.ndarray:
    """Doubles as integers in the same order, one apart per ulp."""
    bits = x.view(np.int64)
    return np.where(bits < 0, np.iinfo(np.int64).min - bits, bits)


class TestWrightOmega:
    """The real-axis Wright omega against ``scipy.special.wrightomega``."""

    @staticmethod
    def arguments() -> np.ndarray:
        """A dense grid over ``[-800, 800]``, dense grids on both sides of
        each region edge, and the special values."""
        grids = [np.linspace(-800.0, 800.0, 400_001)]
        for edge in (-50.0, -2.0, 1.0, 1e20):
            grids.append(edge + np.linspace(-1e-3, 1e-3, 10_001) * abs(edge))
            grids.append(edge + np.arange(-1000, 1001) * np.spacing(edge))
        grids.append(np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300,
                               -1e300, -744.0, -745.1, -745.2, -746.0, -1e4]))
        return np.concatenate(grids)

    def test_within_four_ulp_of_scipy(self):
        from scipy.special import wrightomega

        z = self.arguments()
        ours = np.array([_wright_omega(v) for v in z.tolist()])
        ref = wrightomega(z)
        nan = np.isnan(ref)
        np.testing.assert_array_equal(np.isnan(ours), nan)
        ulps = np.abs(ordered_bits(ours[~nan]) - ordered_bits(ref[~nan]))
        assert ulps.max() <= 4
        identical = np.count_nonzero(ulps == 0) / ulps.size
        print(f"Wright omega: {identical:.4%} of {z.size} values bit-identical to SciPy")

    def test_special_values(self):
        assert _wright_omega(math.inf) == math.inf
        assert _wright_omega(-math.inf) == 0.0
        assert math.isnan(_wright_omega(math.nan))
        assert _wright_omega(-746.0) == 0.0          # e^x underflows
        assert _wright_omega(1e21) == 1e21
        assert _wright_omega(1.0) == 1.0             # 1 + log 1 = 1

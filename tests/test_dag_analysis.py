"""Tests of the DAG analysis utilities (levels, slack, bounds)."""

from __future__ import annotations

import pytest

from repro.dag import generators
from repro.dag.analysis import (
    bottom_levels,
    depth_layers,
    energy_lower_bound,
    makespan_lower_bound,
    max_parallelism,
    parallelism_profile,
    slack,
    summarize,
    top_levels,
)
from repro.dag.taskgraph import TaskGraph


@pytest.fixture
def diamond() -> TaskGraph:
    return TaskGraph(
        {"s": 1.0, "l": 2.0, "r": 4.0, "t": 1.0},
        [("s", "l"), ("s", "r"), ("l", "t"), ("r", "t")],
    )


class TestLevels:
    def test_top_levels(self, diamond):
        tl = top_levels(diamond)
        assert tl["s"] == 0.0
        assert tl["l"] == 1.0
        assert tl["r"] == 1.0
        assert tl["t"] == 5.0  # through the heavier branch

    def test_bottom_levels(self, diamond):
        bl = bottom_levels(diamond)
        assert bl["t"] == 1.0
        assert bl["r"] == 5.0
        assert bl["l"] == 3.0
        assert bl["s"] == 6.0

    def test_top_plus_bottom_on_critical_path(self, diamond):
        tl, bl = top_levels(diamond), bottom_levels(diamond)
        cp = diamond.critical_path_weight()
        for t in diamond.critical_path():
            assert tl[t] + bl[t] == pytest.approx(cp)

    def test_depth_layers(self, diamond):
        layers = depth_layers(diamond)
        assert layers[0] == ["s"]
        assert set(layers[1]) == {"l", "r"}
        assert layers[2] == ["t"]

    def test_depth_layers_empty(self):
        assert depth_layers(TaskGraph({})) == []


class TestSlackAndParallelism:
    def test_slack_zero_on_critical_path(self, diamond):
        s = slack(diamond)
        assert s["s"] == pytest.approx(0.0)
        assert s["r"] == pytest.approx(0.0)
        assert s["t"] == pytest.approx(0.0)
        assert s["l"] == pytest.approx(2.0)

    def test_slack_with_deadline(self, diamond):
        s = slack(diamond, deadline=8.0)
        assert s["s"] == pytest.approx(2.0)

    def test_parallelism_profile(self, diamond):
        assert parallelism_profile(diamond) == [1, 2, 1]
        assert max_parallelism(diamond) == 2
        assert max_parallelism(TaskGraph({})) == 0


class TestBounds:
    def test_makespan_lower_bound_critical_path_dominates(self, diamond):
        # With many processors the critical path dominates.
        assert makespan_lower_bound(diamond, 8, 1.0) == pytest.approx(6.0)

    def test_makespan_lower_bound_area_dominates(self, diamond):
        # With a single processor the total work dominates.
        assert makespan_lower_bound(diamond, 1, 1.0) == pytest.approx(8.0)

    def test_makespan_lower_bound_scales_with_speed(self, diamond):
        assert makespan_lower_bound(diamond, 1, 2.0) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            makespan_lower_bound(diamond, 0, 1.0)
        with pytest.raises(ValueError):
            makespan_lower_bound(diamond, 1, 0.0)

    def test_energy_lower_bound_positive_and_monotone_in_deadline(self, diamond):
        tight = energy_lower_bound(diamond, 6.0)
        loose = energy_lower_bound(diamond, 12.0)
        assert tight > loose > 0.0
        with pytest.raises(ValueError):
            energy_lower_bound(diamond, 0.0)

    def test_energy_lower_bound_with_tiny_weights(self):
        # w^3 / D^2 underflows to 0/0 here; w * (w/D)^2 does not.
        graph = TaskGraph({"a": 3e-181})
        assert energy_lower_bound(graph, 3e-181) == pytest.approx(3e-181)

    def test_energy_lower_bound_is_valid_for_uniform_schedule(self, diamond):
        # A very loose but safe check: the bound never exceeds the energy of
        # running every task at the speed needed to finish the critical path
        # within the deadline on infinitely many processors.
        deadline = 10.0
        speed = diamond.critical_path_weight() / deadline
        uniform_energy = sum(w * speed ** 2 for w in diamond.weights().values())
        # The bound uses the critical path only, so it is at most that.
        assert energy_lower_bound(diamond, deadline) <= uniform_energy + 1e-9


class TestSummary:
    def test_summarize_chain(self):
        g = generators.chain([1.0, 2.0, 3.0])
        s = summarize(g)
        assert s.is_chain and not s.is_fork
        assert s.depth == 3 and s.max_width == 1
        assert s.parallelism_ratio == pytest.approx(1.0)

    def test_summarize_fork(self):
        g = generators.fork(1.0, [2.0, 2.0, 2.0])
        s = summarize(g)
        assert s.is_fork and not s.is_chain
        assert s.max_width == 3
        assert s.parallelism_ratio == pytest.approx(7.0 / 3.0)

    def test_parallelism_ratio_degenerate(self):
        s = summarize(TaskGraph({"a": 0.0}))
        assert s.parallelism_ratio == 0.0

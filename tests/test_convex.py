"""Tests of the numerical convex solver for general mapped DAGs."""

from __future__ import annotations

import itertools
import math
import pickle

import numpy as np
import pytest

from repro.continuous.closed_form import chain_bicrit, fork_energy, series_parallel_bicrit
from repro.continuous import convex
from repro.continuous.convex import (
    STACK_ROWS,
    convex_program,
    solve_bicrit_continuous_dag,
    solve_bicrit_convex,
)
from repro.core.problems import BiCritProblem
from repro.core.speeds import ContinuousSpeeds
from repro.dag import generators
from repro.dag.taskgraph import TaskGraph
from repro.platform.list_scheduling import critical_path_mapping
from repro.platform.mapping import Mapping
from repro.platform.platform import Platform
from tests.oracles import scipy_convex, trust_constr_convex


WIDE = Platform(16, ContinuousSpeeds(0.001, 100.0))


class TestAgainstClosedForms:
    def test_chain(self):
        graph = generators.chain([1.0, 2.0, 3.0])
        mapping = Mapping.single_processor(graph)
        result = solve_bicrit_convex(mapping, WIDE, 12.0)
        expected = chain_bicrit([1.0, 2.0, 3.0], 12.0).energy
        assert result.energy == pytest.approx(expected, rel=1e-4)
        assert result.status in ("optimal", "feasible")

    def test_fork(self):
        graph = generators.fork(2.0, [1.0, 3.0, 2.0])
        mapping = Mapping.one_task_per_processor(graph)
        result = solve_bicrit_convex(mapping, WIDE, 5.0)
        assert result.energy == pytest.approx(fork_energy(2.0, [1.0, 3.0, 2.0], 5.0),
                                              rel=1e-4)

    def test_random_series_parallel(self):
        graph = generators.random_series_parallel(9, seed=3)
        mapping = Mapping.one_task_per_processor(graph)
        deadline = 1.8 * graph.critical_path_weight()
        result = solve_bicrit_convex(mapping, WIDE, deadline)
        expected = series_parallel_bicrit(graph, deadline).energy
        assert result.energy == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("method", ["slsqp", "trust-constr"])
    def test_both_methods_agree(self, method):
        # The interior point and SciPy's method both reach the fork's closed
        # form, and the interior point is never the worse of the two.
        graph = generators.fork(2.0, [1.0, 3.0])
        mapping = Mapping.one_task_per_processor(graph)
        expected = fork_energy(2.0, [1.0, 3.0], 4.0)
        result = solve_bicrit_convex(mapping, WIDE, 4.0)
        oracle = scipy_convex(mapping, WIDE, 4.0, method=method)
        assert oracle.energy == pytest.approx(expected, rel=1e-3)
        assert result.energy == pytest.approx(expected, rel=1e-3)
        assert result.energy <= oracle.energy * (1.0 + 1e-9)


class TestConstraintsAndBounds:
    def test_solution_meets_deadline_on_mapped_dag(self):
        graph = generators.random_layered_dag(4, 3, seed=7)
        platform = Platform(3, ContinuousSpeeds(0.1, 1.0))
        mapping = critical_path_mapping(graph, 3, fmax=1.0).mapping
        deadline = 1.6 * critical_path_mapping(graph, 3, fmax=1.0).makespan
        result = solve_bicrit_convex(mapping, platform, deadline)
        assert result.feasible
        # Recompute the makespan from the durations on the augmented graph.
        augmented = mapping.augmented_graph()
        finish = {}
        for t in augmented.topological_order():
            start = max((finish[p] for p in augmented.predecessors(t)), default=0.0)
            finish[t] = start + result.durations[t]
        assert max(finish.values()) <= deadline * (1.0 + 1e-5)

    def test_speed_bounds_respected(self):
        graph = generators.chain([2.0, 2.0])
        platform = Platform(1, ContinuousSpeeds(0.4, 1.0))
        mapping = Mapping.single_processor(graph)
        result = solve_bicrit_convex(mapping, platform, 100.0)
        for t in graph.tasks():
            assert result.speeds[t] >= 0.4 - 1e-6
            assert result.speeds[t] <= 1.0 + 1e-6

    def test_per_task_speed_floor(self):
        graph = generators.chain([2.0, 2.0])
        platform = Platform(1, ContinuousSpeeds(0.1, 1.0))
        mapping = Mapping.single_processor(graph)
        result = solve_bicrit_convex(mapping, platform, 20.0,
                                     min_speed={"T0": 0.9, "T1": 0.1})
        assert result.speeds["T0"] >= 0.9 - 1e-6

    def test_effective_weights_override(self):
        graph = generators.chain([2.0, 2.0])
        platform = Platform(1, ContinuousSpeeds(0.05, 2.0))
        mapping = Mapping.single_processor(graph)
        doubled = solve_bicrit_convex(mapping, platform, 10.0,
                                      effective_weights={"T0": 4.0, "T1": 2.0})
        expected = chain_bicrit([4.0, 2.0], 10.0).energy
        assert doubled.energy == pytest.approx(expected, rel=1e-4)

    def test_infeasible_detected(self):
        graph = generators.chain([10.0])
        platform = Platform(1, ContinuousSpeeds(0.1, 1.0))
        mapping = Mapping.single_processor(graph)
        result = solve_bicrit_convex(mapping, platform, 5.0)
        assert result.status == "infeasible"
        assert result.energy == math.inf

    def test_zero_weight_tasks_are_contracted(self):
        graph = TaskGraph({"a": 1.0, "z": 0.0, "b": 2.0}, [("a", "z"), ("z", "b")])
        mapping = Mapping.single_processor(graph)
        result = solve_bicrit_convex(mapping, WIDE, 6.0)
        # Behaves exactly like the chain a->b.
        assert result.energy == pytest.approx(chain_bicrit([1.0, 2.0], 6.0).energy,
                                              rel=1e-4)
        assert result.durations["z"] == 0.0

    @pytest.mark.parametrize("shrink", [1.0, 1.0 - 1e-10])
    def test_zero_slack_layered_dag(self, shrink):
        # The deadline is the maximum-speed makespan itself, or within the
        # 1e-9 feasibility tolerance below it: the feasible set has no
        # interior, and the critical tasks all run at fmax.
        graph = generators.random_layered_dag(3, 3, seed=0)
        platform = Platform(3, ContinuousSpeeds(0.1, 1.0))
        mapping = critical_path_mapping(graph, 3, fmax=1.0).mapping
        makespan = BiCritProblem(mapping, platform, 1.0).min_makespan()
        problem = BiCritProblem(mapping, platform, shrink * makespan)
        result = solve_bicrit_continuous_dag(problem)
        assert result.status == "optimal"
        assert problem.evaluate(result.require_schedule()).feasible
        oracle = trust_constr_convex(mapping, platform, makespan)
        assert result.energy == pytest.approx(oracle, rel=1e-9)

    def test_invalid_arguments(self):
        graph = generators.chain([1.0])
        mapping = Mapping.single_processor(graph)
        with pytest.raises(ValueError):
            solve_bicrit_convex(mapping, WIDE, -1.0)
        with pytest.raises(ValueError):
            solve_bicrit_convex(mapping, WIDE, 1.0, min_speed=2.0, max_speed=1.0)


class TestProblemWrapper:
    def test_solve_result_schedule_is_feasible(self):
        graph = generators.random_layered_dag(3, 3, seed=2)
        platform = Platform(3, ContinuousSpeeds(0.1, 1.0))
        mapping = critical_path_mapping(graph, 3, fmax=1.0).mapping
        deadline = 1.7 * critical_path_mapping(graph, 3, fmax=1.0).makespan
        problem = BiCritProblem(mapping, platform, deadline)
        result = solve_bicrit_continuous_dag(problem)
        assert result.feasible
        schedule = result.require_schedule()
        assert schedule.is_feasible(deadline, deadline_tol=1e-5)
        assert result.energy == pytest.approx(schedule.energy())

    def test_metadata_reports_the_certified_gap(self):
        graph = generators.random_layered_dag(3, 3, seed=2)
        platform = Platform(3, ContinuousSpeeds(0.1, 1.0))
        mapping = critical_path_mapping(graph, 3, fmax=1.0).mapping
        deadline = 1.7 * critical_path_mapping(graph, 3, fmax=1.0).makespan
        raw = solve_bicrit_convex(mapping, platform, deadline)
        result = solve_bicrit_continuous_dag(BiCritProblem(mapping, platform, deadline))
        assert result.metadata["gap"] == raw.gap
        assert 0.0 < raw.gap <= 1e-12 * raw.energy
        oracle = trust_constr_convex(mapping, platform, deadline)
        assert raw.energy - oracle <= raw.gap + 1e-14 * raw.energy

    def test_infeasible_problem_wrapper(self):
        graph = generators.chain([10.0])
        platform = Platform(1, ContinuousSpeeds(0.1, 1.0))
        problem = BiCritProblem(Mapping.single_processor(graph), platform, 5.0)
        result = solve_bicrit_continuous_dag(problem)
        assert result.status == "infeasible"
        assert result.schedule is None


class TestStacks:
    """A row's answer does not depend on the rows solved beside it."""

    @staticmethod
    def program_rows(count: int, seed: int):
        graph = generators.random_layered_dag(3, 3, seed=2)
        schedule = critical_path_mapping(graph, 3, fmax=1.0)
        program = convex_program(schedule.mapping)
        rng = np.random.default_rng(seed)
        n = len(program.positive)
        base = np.array([graph.weight(t) for t in program.positive])
        w = base * rng.uniform(0.6, 1.4, size=(count, n))
        fmin = np.full((count, n), 0.1)
        fmax = np.ones((count, n))
        # Row 1: too heavy for the deadline even at fmax.  Row 2: two
        # durations pinned to a point box.
        w[1] *= 10.0
        fmin[2, :2] = 1.0
        return program, w, fmin, fmax, 1.8 * schedule.makespan

    @staticmethod
    def assert_same_rows(stack, rows, other):
        for name in ("durations", "starts", "energy", "iterations", "gap"):
            np.testing.assert_array_equal(getattr(stack, name)[rows],
                                          getattr(other, name), strict=True)
        assert [stack.status[i] for i in rows] == other.status
        assert [stack.messages[i] for i in rows] == other.messages

    @pytest.mark.parametrize("seed", [0, 1])
    def test_row_alone_equals_the_row_in_stacks_of_3_and_9(self, seed):
        program, w, fmin, fmax, deadline = self.program_rows(9, seed)
        nine = program.solve(w, fmin, fmax, deadline, 3.0)
        assert nine.status[1] == "infeasible" and math.isinf(nine.energy[1])
        assert nine.status[2] == "optimal"
        # Rows stop at different iterations, so rows leave mid-stack.
        assert len(set(nine.iterations[[0, 2, 3, 4, 5, 6, 7, 8]].tolist())) > 1
        for i in range(9):
            alone = program.solve(w[i:i + 1], fmin[i:i + 1], fmax[i:i + 1], deadline, 3.0)
            self.assert_same_rows(nine, [i], alone)
        for start in range(0, 9, 3):
            rows = list(range(start, start + 3))
            three = program.solve(w[rows], fmin[rows], fmax[rows], deadline, 3.0)
            self.assert_same_rows(nine, rows, three)

    def test_rows_past_one_stack_are_split_unchanged(self):
        program, w, fmin, fmax, deadline = self.program_rows(3, 0)
        rows = np.arange(STACK_ROWS + 3) % 3
        many = program.solve(w[rows], fmin[rows], fmax[rows], deadline, 3.0)
        tail = rows[STACK_ROWS:]
        few = program.solve(w[tail], fmin[tail], fmax[tail], deadline, 3.0)
        self.assert_same_rows(many, [STACK_ROWS, STACK_ROWS + 1, STACK_ROWS + 2], few)

    def test_solve_bicrit_convex_is_a_stack_of_one(self):
        program, w, fmin, fmax, deadline = self.program_rows(3, 0)
        graph = generators.random_layered_dag(3, 3, seed=2)
        mapping = critical_path_mapping(graph, 3, fmax=1.0).mapping
        platform = Platform(3, ContinuousSpeeds(0.1, 1.0))
        stack = program.solve(w, fmin, fmax, deadline, 3.0)
        for i in (0, 2):
            weights = dict(zip(program.positive, w[i].tolist()))
            floors = dict(zip(program.positive, fmin[i].tolist()))
            result = solve_bicrit_convex(mapping, platform, deadline,
                                         effective_weights=weights, min_speed=floors)
            assert list(result.durations.values()) == stack.durations[i].tolist()
            assert result.energy == stack.energy[i]
            assert (result.gap, result.iterations) == (stack.gap[i], stack.iterations[i])

    @staticmethod
    def point_box_rows():
        """One row per point-box mask: every subset of the durations pinned
        at ``fmin = fmax``, the same weights and deadline on every row."""
        program, w, fmin, fmax, deadline = TestStacks.program_rows(3, 0)
        n = len(program.positive)
        masks = np.array(list(itertools.product([False, True], repeat=n)))
        rows = len(masks)
        return (program, masks, np.repeat(w[:1], rows, axis=0),
                np.where(masks, 1.0, fmin[0]), np.ones((rows, n)), deadline)

    def test_point_box_masks_share_stacks(self, monkeypatch):
        program, masks, w, fmin, fmax, deadline = self.point_box_rows()
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return interior_point(*args)

        interior_point = convex._interior_point
        monkeypatch.setattr(convex, "_interior_point", counted)
        stack = program.solve(w, fmin, fmax, deadline, 3.0)
        assert len(calls) == math.ceil(len(masks) / STACK_ROWS)
        assert "infeasible" not in stack.status
        # A pinned duration never moves off its point.
        np.testing.assert_array_equal(stack.durations[masks], (w / fmax)[masks], strict=True)
        for i in (0, 1, len(masks) // 2 + 3, len(masks) - 1):
            alone = program.solve(w[i:i + 1], fmin[i:i + 1], fmax[i:i + 1], deadline, 3.0)
            self.assert_same_rows(stack, [i], alone)

    def test_compiled_state_does_not_grow_with_masks(self):
        _, _, w, fmin, fmax, deadline = self.point_box_rows()
        graph = generators.random_layered_dag(3, 3, seed=2)
        mapping = critical_path_mapping(graph, 3, fmax=1.0).mapping
        program = convex_program(mapping)
        program.solve(w[:1], fmin[:1], fmax[:1], deadline, 3.0)
        size = len(pickle.dumps(mapping))
        program.solve(w, fmin, fmax, deadline, 3.0)
        assert len(pickle.dumps(mapping)) == size


class TestFactor:
    """``_factor`` against factoring the stack one matrix at a time."""

    @staticmethod
    def stack(count: int, bad: list[int], seed: int = 0) -> np.ndarray:
        """``count`` positive definite 6x6 matrices, those at ``bad``
        made indefinite."""
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(count, 6, 6))
        A = m @ m.transpose(0, 2, 1) + 0.1 * np.eye(6)
        A[bad, 0, 0] = -1.0
        return A

    @staticmethod
    def one_by_one(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        factors = np.zeros_like(A)
        failed = np.zeros(len(A), dtype=bool)
        for i in range(len(A)):
            try:
                factors[i] = np.linalg.cholesky(A[i])
            except np.linalg.LinAlgError:
                failed[i] = True
        return factors, failed

    @pytest.mark.parametrize("count, bad", [
        (1, []), (1, [0]), (64, []), (64, [0]), (64, [37]), (64, [63]),
        (63, [5, 6, 40]), (37, list(range(0, 37, 4))), (9, list(range(9)))])
    def test_matches_one_by_one(self, count, bad):
        A = self.stack(count, bad)
        want_factors, want_failed = self.one_by_one(A)
        factors, failed = convex._factor(A)
        np.testing.assert_array_equal(failed, want_failed, strict=True)
        np.testing.assert_array_equal(factors, want_factors, strict=True)

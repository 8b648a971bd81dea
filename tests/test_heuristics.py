"""Tests of the two TRI-CRIT heuristic families and their combination."""

from __future__ import annotations

import itertools
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.continuous.convex import solve_bicrit_convex
from repro.continuous.exhaustive import best_known_tricrit, solve_tricrit_exhaustive
from repro.continuous.heuristics import (
    TRICRIT_HEURISTICS,
    _restricted,
    best_of_heuristics,
    heuristic_energy_gain,
    heuristic_parallel_slack,
    solve_reexec_sets,
    solve_tricrit_no_reexec,
    solve_with_reexec_set,
)
from repro.core.problems import TriCritProblem
from repro.core.reliability import ReliabilityModel
from repro.core.speeds import ContinuousSpeeds
from repro.dag import generators
from repro.platform.list_scheduling import critical_path_mapping
from repro.platform.mapping import Mapping
from repro.platform.platform import Platform
from repro.solvers.context import SolverContext
from repro.solvers.dispatch import solve
from tests.oracles import scipy_convex, trust_constr_convex


def make_problem(graph, num_processors, slack, *, lambda0=1e-4) -> TriCritProblem:
    model = ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=lambda0)
    platform = Platform(num_processors, ContinuousSpeeds(0.1, 1.0),
                        reliability_model=model)
    mapping = critical_path_mapping(graph, num_processors, fmax=1.0).mapping
    augmented = mapping.augmented_graph()
    finish = {}
    for t in augmented.topological_order():
        s = max((finish[p] for p in augmented.predecessors(t)), default=0.0)
        finish[t] = s + graph.weight(t)
    deadline = slack * max(finish.values())
    return TriCritProblem(mapping, platform, deadline)


@pytest.fixture
def layered_problem() -> TriCritProblem:
    return make_problem(generators.random_layered_dag(3, 3, seed=5), 3, slack=2.0)


class TestRestrictedSolver:
    def test_no_reexec_solution_is_reliable(self, layered_problem):
        result = solve_tricrit_no_reexec(layered_problem)
        assert result.feasible
        report = layered_problem.evaluate(result.require_schedule())
        assert report.feasible

    def test_reexec_set_recorded_and_applied(self, layered_problem):
        task = next(t for t in layered_problem.graph.tasks()
                    if layered_problem.graph.weight(t) > 0)
        result = solve_with_reexec_set(layered_problem, [task])
        assert result.feasible
        schedule = result.require_schedule()
        assert schedule.decisions[task].is_reexecuted
        assert str(task) in result.metadata["reexecuted"]
        report = layered_problem.evaluate(schedule)
        assert report.feasible

    def test_infeasible_reexec_set(self):
        problem = make_problem(generators.chain([2.0, 2.0]), 1, slack=1.05)
        all_tasks = list(problem.graph.tasks())
        result = solve_with_reexec_set(problem, all_tasks)
        assert not result.feasible


def too_fast_problem(graph, num_processors) -> TriCritProblem:
    """``frel`` above the platform's ``fmax``: every single execution is
    too fast to run, while a re-execution's floor is well inside."""
    model = ReliabilityModel(fmin=0.1, fmax=1.0, frel=0.9)
    platform = Platform(num_processors, ContinuousSpeeds(0.1, 0.8),
                        reliability_model=model)
    mapping = (Mapping.single_processor(graph) if num_processors == 1
               else critical_path_mapping(graph, num_processors, fmax=0.8).mapping)
    return TriCritProblem(mapping, platform, 50.0)


class TestStackedRestrictedSolve:
    """A subset solved in a stack is the same solve as the subset alone."""

    @pytest.mark.parametrize("problem", [
        make_problem(generators.random_chain(5, seed=2), 1, slack=1.2),
        make_problem(generators.random_fork(4, seed=3), 5, slack=1.2),
        make_problem(generators.random_layered_dag(2, 3, seed=4), 3, slack=1.2),
        too_fast_problem(generators.random_fork(3, seed=1), 2),
    ], ids=["chain", "fork", "layered", "fork-too-fast"])
    def test_each_row_equals_the_subset_alone(self, problem):
        positive = SolverContext.for_problem(problem).positive_tasks
        subsets = [frozenset(c) for r in range(len(positive) + 1)
                   for c in itertools.combinations(positive, r)]
        rows = list(solve_reexec_sets(problem, subsets))
        assert [row.reexec for row in rows] == subsets
        for subset, row in zip(subsets, rows):
            stacked = row.result(problem, "tricrit-restricted")
            alone = solve_with_reexec_set(problem, subset)
            assert (stacked.status, stacked.energy) == (alone.status, alone.energy)
            assert stacked.metadata == alone.metadata
            if alone.feasible:
                assert row.energy == alone.energy
                assert stacked.schedule.decisions == alone.schedule.decisions
            else:
                assert stacked.schedule is None
        feasible = sum(row.feasible for row in rows)
        assert 0 < feasible < len(rows)


class TestTooFastFloors:
    """A subset whose speed floor exceeds ``fmax`` is infeasible, on any
    mapping, and the enumerations go on past it."""

    def test_exhaustive_equals_pruned(self):
        problem = too_fast_problem(generators.random_fork(3, seed=1), 2)
        exhaustive = solve(problem, solver="tricrit-exhaustive")
        pruned = solve(problem, solver="tricrit-pruned")
        assert exhaustive.status == pruned.status == "optimal"
        assert exhaustive.energy == pytest.approx(pruned.energy, rel=1e-9)
        assert exhaustive.metadata["reexecuted"] == pruned.metadata["reexecuted"]

    @pytest.mark.parametrize("graph, processors", [
        (generators.random_chain(3, seed=1), 1),
        (generators.random_fork(3, seed=1), 2),
    ], ids=["chain", "fork"])
    def test_no_reexec_is_infeasible(self, graph, processors):
        result = solve(too_fast_problem(graph, processors), solver="tricrit-no-reexec")
        assert result.status == "infeasible"
        assert result.metadata["message"] == "a reliability speed floor exceeds fmax"

    @pytest.mark.parametrize("graph, processors, solver", [
        (generators.random_chain(3, seed=1), 1, "tricrit-heuristic-energy-gain"),
        (generators.random_chain(3, seed=1), 1, "tricrit-heuristic-parallel-slack"),
        (generators.random_chain(3, seed=1), 1, "tricrit-best-of"),
        (generators.random_chain(3, seed=1), 1, "tricrit-chain-greedy"),
        (generators.random_fork(3, seed=1), 2, "tricrit-heuristic-energy-gain"),
        (generators.random_fork(3, seed=1), 2, "tricrit-heuristic-parallel-slack"),
        (generators.random_fork(3, seed=1), 2, "tricrit-best-of"),
    ], ids=["chain-energy-gain", "chain-parallel-slack", "chain-best-of", "chain-greedy",
            "fork-energy-gain", "fork-parallel-slack", "fork-best-of"])
    def test_greedy_loops_start_from_every_task_reexecuted(self, graph, processors, solver):
        # No task can run once, so no one-task addition to the empty set is
        # feasible: the greedy loops must start from the forced set.
        problem = too_fast_problem(graph, processors)
        result = solve(problem, solver=solver)
        pruned = solve(problem, solver="tricrit-pruned")
        assert result.feasible
        assert result.energy == pytest.approx(pruned.energy, rel=1e-9)
        assert result.metadata["reexecuted"] == pruned.metadata["reexecuted"]


class TestHeuristicFamilies:
    def test_both_families_feasible_and_never_worse_than_no_reexec(self, layered_problem):
        base = solve_tricrit_no_reexec(layered_problem)
        a = heuristic_energy_gain(layered_problem)
        b = heuristic_parallel_slack(layered_problem)
        for result in (a, b):
            assert result.feasible
            assert result.energy <= base.energy + 1e-9
            report = layered_problem.evaluate(result.require_schedule())
            assert report.feasible

    def test_best_of_takes_the_minimum(self, layered_problem):
        a = heuristic_energy_gain(layered_problem)
        b = heuristic_parallel_slack(layered_problem)
        best = best_of_heuristics(layered_problem)
        assert best.energy == pytest.approx(min(a.energy, b.energy), rel=1e-9)
        assert best.metadata["winner"] in (a.solver, b.solver)

    def test_heuristics_close_to_exhaustive_on_small_instances(self):
        problem = make_problem(generators.random_layered_dag(2, 3, seed=11), 3, slack=2.5)
        best = best_of_heuristics(problem)
        reference = solve_tricrit_exhaustive(problem)
        assert best.energy <= reference.energy * 1.10 + 1e-9
        assert best.energy >= reference.energy - 1e-6

    def test_chain_heuristic_on_chain_instances(self):
        problem = make_problem(generators.random_chain(6, seed=3), 1, slack=2.5)
        a = heuristic_energy_gain(problem)
        reference = solve_tricrit_exhaustive(problem)
        assert a.energy <= reference.energy * 1.10 + 1e-9

    def test_slack_heuristic_on_fork_instances(self):
        problem = make_problem(generators.random_fork(5, seed=4), 6, slack=2.5)
        b = heuristic_parallel_slack(problem)
        reference = solve_tricrit_exhaustive(problem)
        assert b.energy <= reference.energy * 1.10 + 1e-9

    def test_registry_contains_all_heuristics(self):
        assert set(TRICRIT_HEURISTICS) == {"no_reexec", "energy_gain",
                                           "parallel_slack", "best_of"}

    def test_infeasible_instance_propagates(self):
        problem = make_problem(generators.chain([4.0, 4.0]), 1, slack=0.9)
        result = heuristic_energy_gain(problem)
        assert not result.feasible


class TestExhaustive:
    def test_exhaustive_subset_count(self):
        problem = make_problem(generators.random_chain(4, seed=1), 1, slack=2.0)
        result = solve_tricrit_exhaustive(problem)
        assert result.metadata["subsets_evaluated"] == 2 ** 4
        assert result.status == "optimal"

    def test_exhaustive_guard(self):
        problem = make_problem(generators.random_chain(8, seed=1), 1, slack=2.0)
        with pytest.raises(ValueError):
            solve_tricrit_exhaustive(problem, max_tasks=5)

    def test_best_known_routes_through_three_tiers(self):
        small = make_problem(generators.random_chain(4, seed=2), 1, slack=2.0)
        assert best_known_tricrit(small).solver == "tricrit-exhaustive"
        medium = make_problem(generators.random_chain(14, seed=2), 1, slack=2.0)
        assert best_known_tricrit(medium,
                                  exhaustive_limit=6).solver == "tricrit-pruned"
        large = make_problem(generators.random_chain(14, seed=2), 1, slack=2.0)
        assert "heuristic" in best_known_tricrit(large, exhaustive_limit=6,
                                                 pruned_limit=8).solver

    def test_best_known_pruned_tier_matches_exhaustive(self):
        problem = make_problem(generators.random_chain(9, seed=4), 1, slack=1.8)
        exact = solve_tricrit_exhaustive(problem)
        pruned = best_known_tricrit(problem, exhaustive_limit=4)
        assert pruned.solver == "tricrit-pruned"
        assert pruned.energy == pytest.approx(exact.energy, rel=1e-9)

    def test_exhaustive_at_least_as_good_as_heuristics(self):
        problem = make_problem(generators.random_fork(4, seed=6), 5, slack=2.5)
        exact = solve_tricrit_exhaustive(problem)
        best = best_of_heuristics(problem)
        assert exact.energy <= best.energy + 1e-6


class TestMethodIndependence:
    """The heuristics' choices must not depend on the convex backend.

    The interior point, SLSQP and trust-constr reach the same optimum up to
    float noise; on instances with symmetric tasks (a single-processor chain
    gives every task the same slack) that noise used to pick the candidates.
    Here the heuristics' restricted convex solve is swapped for SciPy's
    SLSQP and trust-constr.  Layered DAGs are left out: there SLSQP can stop
    at a feasible but not optimal point, a solver-quality difference rather
    than noise (TestInteriorPointParity covers them against trust-constr).
    """

    @staticmethod
    def counting_backend(method, calls):
        """``solve_reexec_sets`` with SciPy's ``method`` solving each
        multi-processor subset from the same weights and speed floors; one
        processor keeps the real water-fill."""
        def backend(problem, subsets, context=None):
            ctx = context if context is not None else SolverContext.for_problem(problem)
            if ctx.is_single_processor:
                yield from solve_reexec_sets(problem, subsets, ctx)
                return
            for subset in subsets:
                calls.append(method)
                result = scipy_convex(problem.mapping, problem.platform, problem.deadline,
                                      method=method,
                                      **TestInteriorPointParity.restricted_program(
                                          problem, subset))
                yield _restricted(problem, subset,
                                  result.speeds if result.feasible else None,
                                  result.solver_message, (result.status, result.gap))
        return backend

    # The first example is a chain whose slack ranking SLSQP's noise used
    # to flip.  Derandomized draws are seeded by the test's source, so the
    # six cases drawn before the backend moved to ``solve_reexec_sets`` are
    # pinned below them.
    @settings(max_examples=6, deadline=None, derandomize=True)
    @example(family="chain", seed=3, slack=3.0)
    @example(family="chain", seed=0, slack=1.5)
    @example(family="fork", seed=149, slack=2.0)
    @example(family="chain", seed=2498, slack=3.0)
    @example(family="fork", seed=35788, slack=1.5)
    @example(family="fork", seed=65536, slack=2.0)
    @example(family="fork", seed=21242, slack=3.0)
    @given(family=st.sampled_from(["chain", "fork"]),
           seed=st.integers(min_value=0, max_value=2**16),
           slack=st.sampled_from([1.5, 2.0, 3.0]))
    def test_same_result_under_slsqp_and_trust_constr(self, family, seed, slack):
        if family == "chain":
            problem = make_problem(generators.random_chain(5, seed=seed), 1, slack)
        else:
            problem = make_problem(generators.random_fork(4, seed=seed), 5, slack)
        for heuristic in (heuristic_parallel_slack, heuristic_energy_gain):
            native = heuristic(problem)
            for method in ("slsqp", "trust-constr"):
                calls = []
                with mock.patch("repro.continuous.heuristics.solve_reexec_sets",
                                self.counting_backend(method, calls)):
                    other = heuristic(problem)
                assert other.metadata.get("reexecuted") == native.metadata.get("reexecuted")
                if family == "chain":
                    # One processor water-fills: no convex program, no backend.
                    assert not calls
                    assert other.energy == native.energy
                else:
                    assert calls
                    assert other.energy == pytest.approx(native.energy, rel=1e-6)


class TestInteriorPointParity:
    """The convex program's interior point against SciPy's trust-constr.

    The oracle returns the energy of a feasible point, never below the
    optimum, so the interior point's certified gap must cover the
    difference.  A single-processor chain goes to the convex program here
    directly; its restricted solve proper water-fills instead.
    """

    @staticmethod
    def restricted_program(problem, reexec):
        ctx = SolverContext.for_problem(problem)
        frel = max(ctx.reliability.frel, problem.platform.fmin)
        weights = {t: problem.graph.weight(t) * (2.0 if t in reexec else 1.0)
                   for t in problem.graph.tasks()}
        floors = {t: ctx.reexecution_floor(t) if t in reexec else frel
                  for t in problem.graph.tasks()}
        return dict(effective_weights=weights, min_speed=floors)

    # The example is the layered DAG on which SLSQP used to stop at 28.588.
    @settings(max_examples=8, deadline=None, derandomize=True)
    @example(family="layered", seed=29984, slack=3.0, mask=1)
    @given(family=st.sampled_from(["chain", "fork", "layered"]),
           seed=st.integers(min_value=0, max_value=2**16),
           slack=st.sampled_from([1.5, 2.0, 3.0]),
           mask=st.integers(min_value=0, max_value=7))
    def test_never_worse_than_trust_constr(self, family, seed, slack, mask):
        if family == "chain":
            problem = make_problem(generators.random_chain(5, seed=seed), 1, slack)
        elif family == "fork":
            problem = make_problem(generators.random_fork(4, seed=seed), 5, slack)
        else:
            problem = make_problem(generators.random_layered_dag(2, 3, seed=seed),
                                   3, slack)
        positive = SolverContext.for_problem(problem).positive_tasks
        reexec = {t for i, t in enumerate(positive[:3]) if mask >> i & 1}
        program = self.restricted_program(problem, reexec)
        result = solve_bicrit_convex(problem.mapping, problem.platform,
                                     problem.deadline, **program)
        assume(result.feasible)
        assert result.status == "optimal"
        oracle = trust_constr_convex(problem.mapping, problem.platform,
                                     problem.deadline, **program)
        assert result.energy <= oracle * (1.0 + 1e-9)
        # Certified gap, up to the rounding of the two energy sums.
        assert result.energy - oracle <= result.gap + 1e-14 * result.energy

    def test_layered_example_reaches_the_optimum(self):
        problem = make_problem(generators.random_layered_dag(2, 3, seed=29984), 3, 3.0)
        restricted = solve_with_reexec_set(problem, ["L0_0"])
        assert restricted.energy == pytest.approx(26.6012556, abs=1e-7)
        assert 0.0 < restricted.metadata["convex_gap"] <= 1e-12 * restricted.energy
        assert heuristic_parallel_slack(problem).energy == pytest.approx(
            17.886133, abs=1e-6)

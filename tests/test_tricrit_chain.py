"""Tests of the TRI-CRIT chain solvers (paper Section III, linear chains)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuous.exhaustive import solve_tricrit_exhaustive
from repro.continuous.heuristics import solve_with_reexec_set
from repro.continuous.tricrit_chain import (
    reexecution_speed_floor,
    solve_tricrit_chain_exact,
    solve_tricrit_chain_greedy,
)
from repro.core.problems import TriCritProblem
from repro.core.reliability import ReliabilityModel
from repro.core.speeds import ContinuousSpeeds
from repro.dag import generators
from repro.platform.mapping import Mapping
from repro.platform.platform import Platform

from tests.oracles import best_reexec_subset, scalar_chain_enumeration


def single_processor_problem(graph, slack, *, lambda0=1e-4, frel=None,
                             order=None) -> TriCritProblem:
    model = ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=lambda0, frel=frel)
    platform = Platform(1, ContinuousSpeeds(0.1, 1.0), reliability_model=model)
    deadline = slack * graph.total_weight()  # fmax = 1
    return TriCritProblem(Mapping.single_processor(graph, order), platform,
                          deadline)


def chain_problem(weights, slack, *, lambda0=1e-4, frel=None) -> TriCritProblem:
    return single_processor_problem(generators.chain(weights), slack,
                                    lambda0=lambda0, frel=frel)


class TestFixedSubsetSubproblem:
    def test_empty_subset_is_uniform_at_frel_when_deadline_loose(self):
        problem = chain_problem([1.0, 2.0], slack=5.0)
        sol = solve_with_reexec_set(problem, ())
        assert sol.feasible
        # With frel = fmax = 1 a single execution must run at full speed.
        decisions = sol.require_schedule().decisions
        assert decisions["T0"].speeds() == pytest.approx((1.0,))
        assert decisions["T1"].speeds() == pytest.approx((1.0,))

    def test_reexecution_lowers_speed_floor(self):
        problem = chain_problem([1.0, 2.0], slack=5.0)
        sol = solve_with_reexec_set(problem, ("T1",))
        assert sol.feasible
        assert "T1" in sol.metadata["reexecuted"]
        t1 = sol.require_schedule().decisions["T1"]
        speed = t1.speeds()[0]
        assert t1.speeds() == (speed, speed)
        assert speed < 1.0
        # The re-executed task's two executions fit in its reported duration.
        assert t1.worst_case_duration == pytest.approx(2 * 2.0 / speed)

    def test_infeasible_when_too_many_reexecutions(self):
        problem = chain_problem([1.0, 1.0, 1.0], slack=1.05)
        sol = solve_with_reexec_set(problem, ("T0", "T1", "T2"))
        assert not sol.feasible
        assert sol.energy == math.inf

    def test_unknown_task_rejected(self):
        problem = chain_problem([1.0], slack=2.0)
        with pytest.raises(ValueError):
            solve_with_reexec_set(problem, ("T9",))

    def test_reexecution_speed_floor_properties(self):
        model = ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=1e-3)
        floor = reexecution_speed_floor(model, 5.0, 0.1)
        assert 0.1 <= floor <= 1.0
        assert model.reexecution_ok(5.0, floor, floor, tol=1e-9)


class TestExactSolver:
    def test_tight_deadline_forces_no_reexecution(self):
        problem = chain_problem([1.0, 2.0, 1.0], slack=1.0)
        result = solve_tricrit_chain_exact(problem)
        assert result.feasible
        assert result.metadata["reexecuted"] == []
        assert result.energy == pytest.approx(4.0)  # everything at fmax=1

    def test_loose_deadline_makes_reexecution_beneficial(self):
        problem = chain_problem([1.0, 2.0, 1.0], slack=4.0)
        result = solve_tricrit_chain_exact(problem)
        no_reexec = solve_with_reexec_set(problem, ())
        assert result.energy < no_reexec.energy - 1e-9
        assert len(result.metadata["reexecuted"]) >= 1

    def test_schedule_is_feasible_and_reliable(self):
        problem = chain_problem([2.0, 1.0, 3.0], slack=3.0)
        result = solve_tricrit_chain_exact(problem)
        report = problem.evaluate(result.require_schedule())
        assert report.feasible

    def test_subset_count_is_exponential(self):
        problem = chain_problem([1.0] * 5, slack=2.0)
        result = solve_tricrit_chain_exact(problem)
        assert result.metadata["subsets_evaluated"] == 2 ** 5

    def test_chain_without_positive_tasks_evaluates_one_subset(self):
        graph = generators.chain([0.0, 0.0])
        platform = Platform(1, ContinuousSpeeds(0.1, 1.0))
        problem = TriCritProblem(Mapping.single_processor(graph), platform, 1.0)
        result = solve_tricrit_chain_exact(problem)
        assert (result.status, result.energy) == ("optimal", 0.0)
        assert result.metadata == {"reexecuted": [], "subsets_evaluated": 1}

    def test_max_tasks_guard(self):
        problem = chain_problem([1.0] * 6, slack=2.0)
        with pytest.raises(ValueError):
            solve_tricrit_chain_exact(problem, max_tasks=4)

    def test_requires_single_processor_mapping(self, tricrit_fork_problem):
        with pytest.raises(ValueError):
            solve_tricrit_chain_exact(tricrit_fork_problem)


class TestOneEnumerator:
    @settings(max_examples=20, deadline=None)
    @given(family=st.sampled_from(["chain", "fork"]),
           weights=st.lists(st.one_of(st.just(0.0),
                                      st.floats(min_value=0.1, max_value=5.0)),
                            min_size=2, max_size=5),
           slack=st.floats(min_value=1.0, max_value=5.0),
           lambda0=st.sampled_from([1e-5, 1e-4, 1e-3]),
           frel=st.sampled_from([None, 0.6]))
    def test_exhaustive_matches_chain_exact_on_one_processor(
            self, family, weights, slack, lambda0, frel):
        # On one processor ``tricrit-exhaustive`` is the chain kernel's
        # answer relabelled; both are checked against the scalar scan of
        # the oracle, and that scan against one in topological order (a
        # fork's children run on the processor in reverse), so the
        # enumeration order does not move the optimum.
        graph = (generators.chain(weights) if family == "chain"
                 else generators.fork(weights[0], weights[1:]))
        if graph.total_weight() <= 0:
            return
        topo = graph.topological_order()
        order = topo[:1] + topo[1:][::-1] if family == "fork" else topo
        problem = single_processor_problem(graph, slack, lambda0=lambda0,
                                           frel=frel, order=order)
        chain = solve_tricrit_chain_exact(problem)
        exhaustive = solve_tricrit_exhaustive(problem)
        assert exhaustive.solver == "tricrit-exhaustive"
        assert exhaustive.energy == chain.energy
        assert exhaustive.metadata.get("reexecuted") \
            == chain.metadata.get("reexecuted")

        scan = scalar_chain_enumeration(problem)
        positive = [t for t in topo if graph.weight(t) > 0]
        topological = best_reexec_subset(
            positive, lambda subset: solve_with_reexec_set(problem, subset),
            solver_name="tricrit-exhaustive")
        assert exhaustive.status == scan.status == topological.status
        assert exhaustive.metadata["subsets_evaluated"] \
            == scan.metadata["subsets_evaluated"] \
            == topological.metadata["subsets_evaluated"]
        if scan.feasible:
            assert abs(exhaustive.energy - scan.energy) <= 1e-12 * scan.energy
            assert abs(topological.energy - scan.energy) \
                <= 1e-12 * scan.energy
            # The kernel's subset is an optimum of the scalar water-fill.
            own = solve_with_reexec_set(
                problem, tuple(exhaustive.metadata["reexecuted"]))
            assert abs(own.energy - scan.energy) <= 1e-12 * scan.energy


class TestGreedyStrategy:
    def test_greedy_matches_exact_on_small_chains(self):
        for slack in (1.5, 2.5, 4.0):
            for seed in range(3):
                weights = list(generators.random_weights(5, seed=seed, low=1.0, high=5.0))
                problem = chain_problem(weights, slack=slack)
                exact = solve_tricrit_chain_exact(problem)
                greedy = solve_tricrit_chain_greedy(problem)
                assert greedy.feasible
                # The paper's strategy is optimal on chains; allow a tiny
                # numerical tolerance plus rare greedy ties.
                assert greedy.energy <= exact.energy * 1.02 + 1e-9

    def test_greedy_never_beats_exact(self):
        problem = chain_problem([1.0, 2.0, 3.0, 1.0], slack=3.0)
        exact = solve_tricrit_chain_exact(problem)
        greedy = solve_tricrit_chain_greedy(problem)
        assert greedy.energy >= exact.energy - 1e-9

    def test_greedy_schedule_feasible(self):
        problem = chain_problem([1.0, 4.0, 2.0], slack=2.5)
        greedy = solve_tricrit_chain_greedy(problem)
        report = problem.evaluate(greedy.require_schedule())
        assert report.feasible

    def test_greedy_reports_evaluations(self):
        problem = chain_problem([1.0, 2.0], slack=3.0)
        greedy = solve_tricrit_chain_greedy(problem)
        assert greedy.metadata["subsets_evaluated"] >= 1

    def test_lower_frel_reduces_energy(self):
        tight_rel = chain_problem([1.0, 2.0, 1.0], slack=3.0, frel=None)  # frel = fmax
        relaxed_rel = chain_problem([1.0, 2.0, 1.0], slack=3.0, frel=0.6)
        e_tight = solve_tricrit_chain_greedy(tight_rel).energy
        e_relaxed = solve_tricrit_chain_greedy(relaxed_rel).energy
        assert e_relaxed <= e_tight + 1e-9

"""Tests of the exact DISCRETE/INCREMENTAL solvers (MILP and brute force)."""

from __future__ import annotations

import pytest

from repro.core.problems import BiCritProblem
from repro.core.speeds import ContinuousSpeeds, DiscreteSpeeds, IncrementalSpeeds
from repro.dag import generators
from repro.discrete.exact import (
    solve_bicrit_discrete_bruteforce,
    solve_bicrit_discrete_milp,
)
from repro.platform.list_scheduling import critical_path_mapping
from repro.platform.mapping import Mapping
from repro.platform.platform import Platform
from repro.solvers import UnknownSolverOptionError, solve

MODES = (0.25, 0.5, 0.75, 1.0)


def chain_problem(weights, slack, modes=MODES) -> BiCritProblem:
    graph = generators.chain(weights)
    platform = Platform(1, DiscreteSpeeds(modes))
    deadline = slack * graph.total_weight() / platform.fmax
    return BiCritProblem(Mapping.single_processor(graph), platform, deadline)


class TestBruteforce:
    def test_single_task_picks_slowest_feasible_mode(self):
        problem = chain_problem([1.0], 2.0)  # speed 0.5 exactly feasible
        result = solve_bicrit_discrete_bruteforce(problem)
        schedule = result.require_schedule()
        assert schedule.decisions["T0"].speeds()[0] == pytest.approx(0.5)

    def test_counts_assignments(self):
        problem = chain_problem([1.0, 1.0, 1.0], 1.5)
        result = solve_bicrit_discrete_bruteforce(problem)
        assert result.metadata["assignments_evaluated"] == len(MODES) ** 3

    def test_infeasible(self):
        problem = chain_problem([4.0, 4.0], 0.9)
        assert solve_bicrit_discrete_bruteforce(problem).status == "infeasible"

    def test_guard_on_large_instances(self):
        problem = chain_problem([1.0] * 12, 1.5)
        with pytest.raises(ValueError):
            solve_bicrit_discrete_bruteforce(problem, max_assignments=1000)

    def test_requires_discrete_platform(self):
        graph = generators.chain([1.0])
        platform = Platform(1, ContinuousSpeeds(0.1, 1.0))
        problem = BiCritProblem(Mapping.single_processor(graph), platform, 10.0)
        with pytest.raises(TypeError):
            solve_bicrit_discrete_bruteforce(problem)


class TestMilp:
    def test_matches_bruteforce_on_chains(self):
        for seed in range(3):
            weights = list(generators.random_weights(4, seed=seed, low=1.0, high=3.0))
            problem = chain_problem(weights, 1.6)
            milp = solve_bicrit_discrete_milp(problem)
            brute = solve_bicrit_discrete_bruteforce(problem)
            assert milp.energy == pytest.approx(brute.energy, rel=1e-6)

    def test_matches_bruteforce_on_mapped_dag(self):
        graph = generators.random_layered_dag(3, 2, seed=5)
        platform = Platform(2, DiscreteSpeeds(MODES))
        schedule = critical_path_mapping(graph, 2, fmax=1.0)
        problem = BiCritProblem(schedule.mapping, platform, 1.5 * schedule.makespan)
        milp = solve_bicrit_discrete_milp(problem)
        brute = solve_bicrit_discrete_bruteforce(problem)
        assert milp.energy == pytest.approx(brute.energy, rel=1e-6)

    def test_schedule_feasible_and_single_mode_per_task(self):
        problem = chain_problem([1.0, 2.0, 1.5], 1.7)
        result = solve_bicrit_discrete_milp(problem)
        schedule = result.require_schedule()
        assert schedule.is_feasible(problem.deadline, deadline_tol=1e-6)
        for decision in schedule.decisions.values():
            assert len(decision.speeds()) == 1
            assert problem.platform.speed_model.is_admissible(decision.speeds()[0])

    def test_incremental_platform_accepted(self):
        graph = generators.chain([1.0, 1.0])
        platform = Platform(1, IncrementalSpeeds(0.2, 1.0, 0.2))
        problem = BiCritProblem(Mapping.single_processor(graph), platform, 4.0)
        result = solve_bicrit_discrete_milp(problem)
        assert result.feasible

    def test_infeasible(self):
        problem = chain_problem([4.0, 4.0], 0.9)
        assert solve_bicrit_discrete_milp(problem).status == "infeasible"

    def test_unknown_backend(self):
        # HiGHS is the only MILP engine: a backend choice is an unknown option.
        problem = chain_problem([1.0], 1.5)
        with pytest.raises(UnknownSolverOptionError, match="'backend'"):
            solve(problem, solver="bicrit-discrete-milp", backend="bnb")

    def test_discrete_never_beats_continuous(self):
        from repro.continuous.bicrit import solve_bicrit_continuous

        for slack in (1.2, 1.8):
            problem = chain_problem([1.0, 2.0, 3.0], slack)
            discrete = solve_bicrit_discrete_milp(problem)
            continuous = solve_bicrit_continuous(BiCritProblem(
                problem.mapping,
                Platform(1, ContinuousSpeeds(0.25, 1.0)),
                problem.deadline,
            ))
            assert discrete.energy >= continuous.energy - 1e-9

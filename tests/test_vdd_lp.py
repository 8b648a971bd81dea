"""Tests of the VDD-HOPPING linear program (paper Section IV, polynomial case)."""

from __future__ import annotations

import pytest

from repro.continuous.bicrit import solve_bicrit_continuous
from repro.core.problems import BiCritProblem
from repro.core.speeds import DiscreteSpeeds, VddHoppingSpeeds
from repro.dag import generators
from repro.discrete.exact import solve_bicrit_discrete_milp
from repro.discrete.vdd_lp import build_vdd_lp, solve_bicrit_vdd_lp, two_speed_structure
from repro.platform.list_scheduling import critical_path_mapping
from repro.platform.mapping import Mapping
from repro.platform.platform import Platform

MODES = (0.2, 0.4, 0.6, 0.8, 1.0)


def chain_problem(weights, slack, modes=MODES) -> BiCritProblem:
    graph = generators.chain(weights)
    platform = Platform(1, VddHoppingSpeeds(modes))
    deadline = slack * graph.total_weight() / platform.fmax
    return BiCritProblem(Mapping.single_processor(graph), platform, deadline)


def dag_problem(seed=3, slack=1.6, p=3, modes=MODES) -> BiCritProblem:
    graph = generators.random_layered_dag(3, 3, seed=seed)
    platform = Platform(p, VddHoppingSpeeds(modes))
    schedule = critical_path_mapping(graph, p, fmax=platform.fmax)
    return BiCritProblem(schedule.mapping, platform, slack * schedule.makespan)


class TestLpConstruction:
    def test_model_size(self):
        problem = chain_problem([1.0, 2.0, 3.0], 1.5)
        model, alpha, start = build_vdd_lp(problem)
        n, m = 3, len(MODES)
        assert model.num_variables == n * m + n
        assert len(alpha) == n * m
        # work + deadline per task, one precedence row per augmented edge.
        assert model.num_constraints == 2 * n + 2

    def test_requires_vdd_platform(self):
        graph = generators.chain([1.0])
        platform = Platform(1, DiscreteSpeeds(MODES))
        problem = BiCritProblem(Mapping.single_processor(graph), platform, 10.0)
        with pytest.raises(TypeError):
            build_vdd_lp(problem)


class TestLpSolution:
    def test_exact_when_continuous_speed_is_a_mode(self):
        # Uniform speed 0.5 is not a mode, but 1.0/2.0 slack -> speed 0.5...
        # pick slack 2.5 -> speed 0.4, an exact mode: LP must equal continuous.
        problem = chain_problem([1.0, 1.0], 2.5)
        vdd = solve_bicrit_vdd_lp(problem)
        continuous = solve_bicrit_continuous(BiCritProblem(
            problem.mapping, problem.platform.continuous_twin(), problem.deadline))
        assert vdd.energy == pytest.approx(continuous.energy, rel=1e-6)

    def test_sandwiched_between_continuous_and_discrete(self):
        for slack in (1.2, 1.7, 2.3):
            problem = chain_problem([1.0, 2.0, 3.0, 1.5], slack)
            vdd = solve_bicrit_vdd_lp(problem)
            continuous = solve_bicrit_continuous(BiCritProblem(
                problem.mapping, problem.platform.continuous_twin(), problem.deadline))
            discrete = solve_bicrit_discrete_milp(BiCritProblem(
                problem.mapping, problem.platform.with_speed_model(DiscreteSpeeds(MODES)),
                problem.deadline))
            assert continuous.energy <= vdd.energy * (1 + 1e-6)
            assert vdd.energy <= discrete.energy * (1 + 1e-6)

    def test_schedule_feasible_and_meets_deadline(self):
        problem = dag_problem()
        result = solve_bicrit_vdd_lp(problem)
        assert result.status == "optimal"
        schedule = result.require_schedule()
        assert schedule.is_feasible(problem.deadline, deadline_tol=1e-5)

    def test_two_speed_structure(self):
        problem = dag_problem(seed=7)
        result = solve_bicrit_vdd_lp(problem)
        report = two_speed_structure(result.require_schedule())
        assert report.max_speeds_per_task <= 2
        assert report.all_pairs_consecutive

    def test_canonicalisation_does_not_change_energy(self):
        problem = chain_problem([1.0, 2.0, 3.0], 1.8)
        canonical = solve_bicrit_vdd_lp(problem, canonicalize=True)
        raw = solve_bicrit_vdd_lp(problem, canonicalize=False)
        assert canonical.energy == pytest.approx(raw.energy, rel=1e-6)

    def test_infeasible_deadline(self):
        problem = chain_problem([5.0, 5.0], 0.9)
        result = solve_bicrit_vdd_lp(problem)
        assert result.status == "infeasible"

    def test_tight_deadline_runs_at_fmax(self):
        problem = chain_problem([1.0, 1.0], 1.0)
        result = solve_bicrit_vdd_lp(problem)
        schedule = result.require_schedule()
        for decision in schedule.decisions.values():
            assert decision.executions[0].mean_speed() == pytest.approx(1.0, rel=1e-6)

    def test_vdd_beats_discrete_strictly_when_speed_between_modes(self):
        # Required uniform speed 1/1.45 ~ 0.69 sits between modes 0.6 and 0.8:
        # the DISCRETE model must run some task faster than needed.
        problem = chain_problem([1.0, 1.0], 1.45)
        vdd = solve_bicrit_vdd_lp(problem)
        discrete = solve_bicrit_discrete_milp(BiCritProblem(
            problem.mapping, problem.platform.with_speed_model(DiscreteSpeeds(MODES)),
            problem.deadline))
        assert vdd.energy < discrete.energy - 1e-9

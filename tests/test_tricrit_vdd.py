"""Tests of TRI-CRIT under the VDD-HOPPING model (NP-complete case, Section IV)."""

from __future__ import annotations

import pytest

from repro.core.problems import TriCritProblem
from repro.core.reliability import ReliabilityModel
from repro.core.speeds import ContinuousSpeeds, VddHoppingSpeeds
from repro.dag import generators
from repro.continuous.heuristics import solve_with_reexec_set
from repro.discrete.tricrit_vdd import (
    _continuous_twin_problem,
    _round_result,
    solve_tricrit_vdd_exact,
    solve_tricrit_vdd_heuristic,
)
from repro.discrete.vdd_lp import two_speed_structure
from repro.platform.list_scheduling import critical_path_mapping
from repro.platform.mapping import Mapping
from repro.platform.platform import Platform
from repro.solvers.context import SolverContext
from tests.oracles import best_reexec_subset

MODES = (0.2, 0.4, 0.6, 0.8, 1.0)


def vdd_tricrit_problem(graph, num_processors, slack, *, lambda0=1e-4) -> TriCritProblem:
    model = ReliabilityModel(fmin=MODES[0], fmax=MODES[-1], lambda0=lambda0)
    platform = Platform(num_processors, VddHoppingSpeeds(MODES),
                        reliability_model=model)
    mapping = (Mapping.single_processor(graph) if num_processors == 1
               else critical_path_mapping(graph, num_processors, fmax=1.0).mapping)
    augmented = mapping.augmented_graph()
    finish = {}
    for t in augmented.topological_order():
        s = max((finish[p] for p in augmented.predecessors(t)), default=0.0)
        finish[t] = s + graph.weight(t)
    return TriCritProblem(mapping, platform, slack * max(finish.values()))


class TestHeuristic:
    def test_schedule_feasible_reliable_and_on_modes(self):
        problem = vdd_tricrit_problem(generators.random_chain(5, seed=1), 1, 2.5)
        result = solve_tricrit_vdd_heuristic(problem)
        assert result.feasible
        schedule = result.require_schedule()
        report = problem.evaluate(schedule)
        assert report.feasible
        # Every interval speed is one of the platform modes.
        for decision in schedule.decisions.values():
            for execution in decision.executions:
                for f, _ in execution.intervals:
                    assert problem.platform.speed_model.is_admissible(f)

    def test_two_speed_property_holds(self):
        problem = vdd_tricrit_problem(generators.random_fork(4, seed=2), 5, 2.5)
        result = solve_tricrit_vdd_heuristic(problem)
        report = two_speed_structure(result.require_schedule())
        assert report.max_speeds_per_task <= 2

    def test_energy_close_to_continuous_source(self):
        problem = vdd_tricrit_problem(generators.random_chain(5, seed=3), 1, 2.0)
        result = solve_tricrit_vdd_heuristic(problem)
        continuous_energy = result.metadata["continuous_energy"]
        assert result.energy >= continuous_energy - 1e-9
        assert result.energy <= 1.3 * continuous_energy

    def test_beats_all_fmax_when_slack_allows(self):
        graph = generators.random_chain(5, seed=4)
        problem = vdd_tricrit_problem(graph, 1, 2.5)
        result = solve_tricrit_vdd_heuristic(problem)
        all_fmax_energy = graph.total_weight()  # w * fmax^2 with fmax=1
        assert result.energy < all_fmax_energy

    def test_requires_vdd_platform(self):
        graph = generators.chain([1.0, 1.0])
        model = ReliabilityModel(fmin=0.1, fmax=1.0)
        platform = Platform(1, ContinuousSpeeds(0.1, 1.0), reliability_model=model)
        problem = TriCritProblem(Mapping.single_processor(graph), platform, 5.0)
        with pytest.raises(TypeError):
            solve_tricrit_vdd_heuristic(problem)


class TestExact:
    def test_exact_at_least_as_good_as_heuristic(self):
        problem = vdd_tricrit_problem(generators.random_chain(4, seed=5), 1, 2.5)
        exact = solve_tricrit_vdd_exact(problem)
        heuristic = solve_tricrit_vdd_heuristic(problem)
        assert exact.feasible
        assert exact.energy <= heuristic.energy * (1.0 + 1e-6)

    def test_subset_count(self):
        problem = vdd_tricrit_problem(generators.random_chain(3, seed=6), 1, 2.0)
        exact = solve_tricrit_vdd_exact(problem)
        assert exact.metadata["subsets_evaluated"] == 2 ** 3

    def test_guard_on_large_instances(self):
        problem = vdd_tricrit_problem(generators.random_chain(14, seed=7), 1, 2.0)
        with pytest.raises(ValueError):
            solve_tricrit_vdd_exact(problem, max_tasks=8)

    def test_exact_schedule_feasible(self):
        problem = vdd_tricrit_problem(generators.random_fork(3, seed=8), 4, 2.5)
        exact = solve_tricrit_vdd_exact(problem)
        report = problem.evaluate(exact.require_schedule())
        assert report.feasible

    def test_requires_vdd_platform(self, tricrit_chain_problem):
        with pytest.raises(TypeError):
            solve_tricrit_vdd_exact(tricrit_chain_problem)

    @pytest.mark.parametrize("graph, processors, slack", [
        (generators.random_fork(4, seed=3), 3, 2.0),
        (generators.random_series_parallel(5, seed=4), 3, 1.5),
        (generators.random_layered_dag(3, 2, seed=5), 3, 2.0),
    ], ids=["fork", "series-parallel", "layered"])
    def test_stacked_scan_equals_the_scalar_scan(self, graph, processors, slack):
        # One stack of every twin subset against one restricted solve per
        # subset, in graph order: same subset, same bits.
        problem = vdd_tricrit_problem(graph, processors, slack)
        twin = _continuous_twin_problem(problem)
        ctx = SolverContext.for_problem(twin)
        positive = [t for t in graph.tasks() if graph.weight(t) > 0]
        scalar = best_reexec_subset(
            positive, lambda subset: _round_result(
                problem, solve_with_reexec_set(twin, subset, context=ctx),
                "tricrit-vdd-exact"),
            solver_name="tricrit-vdd-exact", status="feasible")
        stacked = solve_tricrit_vdd_exact(problem)
        assert scalar.feasible
        assert (stacked.solver, stacked.status) == (scalar.solver, scalar.status)
        assert stacked.energy == scalar.energy
        assert stacked.metadata == scalar.metadata
        assert stacked.schedule.decisions == scalar.schedule.decisions

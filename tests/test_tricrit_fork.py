"""Tests of the polynomial TRI-CRIT fork algorithm vs brute force (Section III)."""

from __future__ import annotations

import math

import pytest

from repro.continuous.tricrit_fork import (
    _breakpoints,
    _fork_instance,
    best_choice_for_budget,
    solve_tricrit_fork,
    solve_tricrit_fork_bruteforce,
)
from repro.core.energy import EnergyModel
from repro.core.problems import TriCritProblem
from repro.core.reliability import ReliabilityModel
from repro.core.speeds import ContinuousSpeeds
from repro.dag import generators
from repro.platform.mapping import Mapping
from repro.platform.platform import Platform
from repro.solvers import UnknownSolverOptionError, solve


def fork_problem(source_weight, child_weights, slack, *, lambda0=1e-4,
                 alpha=3.0) -> TriCritProblem:
    graph = generators.fork(source_weight, child_weights)
    model = ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=lambda0)
    platform = Platform(len(child_weights) + 1, ContinuousSpeeds(0.1, 1.0),
                        reliability_model=model,
                        energy_model=EnergyModel(exponent=alpha))
    deadline = slack * graph.critical_path_weight()
    return TriCritProblem(Mapping.one_task_per_processor(graph), platform, deadline)


class TestBudgetChoice:
    @pytest.fixture
    def model(self):
        return ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=1e-4)

    def test_tight_budget_forces_single_execution(self, model):
        choice = best_choice_for_budget(2.0, 2.1, model=model, fmin=0.1, fmax=1.0)
        assert not choice.reexecute
        assert choice.speed == pytest.approx(1.0)

    def test_loose_budget_prefers_reexecution(self, model):
        choice = best_choice_for_budget(2.0, 40.0, model=model, fmin=0.1, fmax=1.0)
        assert choice.reexecute
        assert choice.energy < 2.0  # cheaper than the single execution at frel=1

    def test_infeasible_budget(self, model):
        choice = best_choice_for_budget(2.0, 1.0, model=model, fmin=0.1, fmax=1.0)
        assert not choice.feasible
        assert choice.energy == math.inf

    def test_zero_weight_is_free(self, model):
        choice = best_choice_for_budget(0.0, 1.0, model=model, fmin=0.1, fmax=1.0)
        assert choice.feasible and choice.energy == 0.0

    def test_forced_decisions(self, model):
        forced_single = best_choice_for_budget(2.0, 40.0, model=model, fmin=0.1,
                                               fmax=1.0, force=False)
        forced_reexec = best_choice_for_budget(2.0, 40.0, model=model, fmin=0.1,
                                               fmax=1.0, force=True)
        assert not forced_single.reexecute
        assert forced_reexec.reexecute

    @pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0])
    def test_listed_crossover_prices_both_options_equally(self, alpha):
        # frel = fmax = 1 and lambda0 = 1e-4 put the re-execution floor
        # (~0.2) below 2w/B for every alpha here, so at the crossover budget
        # B the re-execution runs at 2w/B and the single execution at frel.
        weight = 2.0
        problem = fork_problem(weight, [1.0], slack=8.0, alpha=alpha)
        fork = _fork_instance(problem)
        expected = 2.0 ** (alpha / (alpha - 1.0)) * weight / fork.frel
        budget = min(_breakpoints(fork), key=lambda b: abs(b - expected))
        kwargs = dict(model=problem.platform.reliability_model, fmin=0.1, fmax=1.0,
                      exponent=problem.platform.energy_model.exponent)
        single = best_choice_for_budget(weight, budget, force=False, **kwargs)
        reexec = best_choice_for_budget(weight, budget, force=True, **kwargs)
        assert fork.floor[fork.source] < 2.0 * weight / budget
        assert single.speed == fork.frel
        assert reexec.speed == pytest.approx(2.0 * weight / budget, rel=1e-12)
        assert reexec.energy == pytest.approx(single.energy, rel=1e-12)


PARITY_FORKS = [(2, 1.5, 0), (2, 3.0, 1), (3, 2.0, 2), (4, 2.5, 3), (5, 3.5, 4)]


class TestPolynomialAlgorithm:
    # alpha = 3 (the paper's cube law) is the default: its rows carry no
    # alpha suffix in their ids.
    @pytest.mark.parametrize("n_children,slack,seed,alpha", [
        *(pytest.param(*fork, 3.0, id="-".join(map(str, fork))) for fork in PARITY_FORKS),
        *((*fork, alpha) for alpha in (2.0, 2.5, 4.0) for fork in PARITY_FORKS),
    ])
    def test_matches_bruteforce(self, n_children, slack, seed, alpha):
        weights = generators.random_weights(n_children + 1, seed=seed, low=1.0, high=4.0)
        problem = fork_problem(weights[0], list(weights[1:]), slack, alpha=alpha)
        poly = solve_tricrit_fork(problem)
        brute = solve_tricrit_fork_bruteforce(problem)
        assert poly.feasible and brute.feasible
        assert poly.energy == pytest.approx(brute.energy, rel=1e-9)

    def test_schedule_is_feasible_and_reliable(self):
        problem = fork_problem(2.0, [1.0, 3.0, 2.0], slack=2.5)
        result = solve_tricrit_fork(problem)
        report = problem.evaluate(result.require_schedule())
        assert report.feasible

    def test_tight_deadline_critical_tasks_not_reexecuted(self):
        # At slack 1.0 the source and the heaviest child saturate the deadline
        # at fmax, so neither can be re-executed; the light child may be.
        problem = fork_problem(2.0, [1.0, 3.0], slack=1.0)
        result = solve_tricrit_fork(problem)
        assert result.feasible
        reexecuted = set(result.metadata["reexecuted"])
        assert "T0" not in reexecuted
        assert "T2" not in reexecuted
        brute = solve_tricrit_fork_bruteforce(problem)
        assert result.energy == pytest.approx(brute.energy, rel=1e-4)

    def test_loose_deadline_reexecutes_children(self):
        problem = fork_problem(1.0, [2.0, 2.0], slack=4.0)
        result = solve_tricrit_fork(problem)
        assert len(result.metadata["reexecuted"]) >= 1
        no_reexec_energy = sum(w * 1.0 for w in (1.0, 2.0, 2.0))  # all at fmax
        assert result.energy < no_reexec_energy

    def test_infeasible_deadline(self):
        graph = generators.fork(5.0, [5.0])
        model = ReliabilityModel(fmin=0.1, fmax=1.0)
        platform = Platform(2, ContinuousSpeeds(0.1, 1.0), reliability_model=model)
        problem = TriCritProblem(Mapping.one_task_per_processor(graph), platform, 6.0)
        result = solve_tricrit_fork(problem)
        assert result.status == "infeasible"

    def test_unknown_option(self):
        # The breakpoint scan is exact: a grid resolution is an unknown option.
        problem = fork_problem(2.0, [1.0, 3.0], slack=2.0)
        with pytest.raises(UnknownSolverOptionError, match="'grid_per_interval'"):
            solve(problem, solver="tricrit-fork-poly", grid_per_interval=8)

    def test_rejects_non_fork_graphs(self, tricrit_chain_problem):
        with pytest.raises(ValueError):
            solve_tricrit_fork(tricrit_chain_problem)

    def test_bruteforce_rejects_large_instances(self):
        problem = fork_problem(1.0, [1.0] * 20, slack=2.0)
        with pytest.raises(ValueError):
            solve_tricrit_fork_bruteforce(problem, max_tasks=10)

    @pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0])
    @pytest.mark.parametrize("frel", [0.5, 0.8])
    def test_bruteforce_admits_a_zero_weight_source_at_slack_one(self, frel, alpha):
        # The children fill the deadline at fmax, so the weightless source
        # must finish at t0 = 0: the reference once floored t0 at 1e-12
        # and reported these forks infeasible.
        graph = generators.fork(0.0, [1.0, 2.0])
        model = ReliabilityModel(fmin=0.1, fmax=1.0, frel=frel)
        platform = Platform(3, ContinuousSpeeds(0.1, 1.0), reliability_model=model,
                            energy_model=EnergyModel(exponent=alpha))
        problem = TriCritProblem(Mapping.one_task_per_processor(graph), platform, 2.0)
        poly = solve_tricrit_fork(problem)
        brute = solve_tricrit_fork_bruteforce(problem)
        assert poly.feasible and brute.feasible
        assert brute.energy == pytest.approx(poly.energy, rel=1e-9)

    def test_bruteforce_configuration_count(self):
        problem = fork_problem(1.0, [1.0, 1.0], slack=2.0)
        brute = solve_tricrit_fork_bruteforce(problem)
        assert brute.metadata["configurations"] == 2 ** 3

    def test_parallel_children_preferred_for_reexecution(self):
        """The paper's insight: parallelizable tasks (children) are the ones
        picked for re-execution/deceleration rather than the serial source."""
        problem = fork_problem(3.0, [3.0, 3.0, 3.0, 3.0], slack=2.2)
        result = solve_tricrit_fork(problem)
        reexecuted = set(result.metadata["reexecuted"])
        if reexecuted:
            source = problem.graph.is_fork()[1]
            assert str(source) not in reexecuted

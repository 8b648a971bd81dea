"""Parity and certificate tests for the pruned TRI-CRIT branch-and-bound.

The pruned solver replaces the blind ``2^n`` subset enumeration past the
reference enumerators' ceiling, so the single property that matters is
*agreement*: on every instance both can solve, the branch-and-bound optimum
must equal the enumerated optimum.  Hypothesis drives randomized chains
against the vectorized chain subset enumeration of
:func:`repro.solvers.batch.solve_batch` (the scalar
:func:`solve_tricrit_chain_exact` is held equal to it by
``tests/test_batch_solvers.py``) and randomized forks / series-parallel
DAGs against :func:`solve_tricrit_exhaustive`; further
tests pin down the gap certificate (the reported lower bound really is a
bound), degenerate platforms, and infeasibility propagation end-to-end
through the v1 API error codes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import api
from repro.api.errors import INFEASIBLE_PROBLEM, ApiError
from repro.continuous.exhaustive import best_known_tricrit, solve_tricrit_exhaustive
from repro.continuous.heuristics import (
    best_of_heuristics,
    reexec_energy,
    reexec_schedule,
    solve_with_reexec_set,
)
from repro.continuous.tricrit_chain import solve_tricrit_chain_exact
from repro.core.columnar import ProblemBatch
from repro.core.problem_io import problem_from_dict, problem_to_dict
from repro.core.problems import InfeasibleProblemError, TriCritProblem
from repro.core.reliability import ReliabilityModel
from repro.core.speeds import ContinuousSpeeds
from repro.dag import generators
from repro.platform.list_scheduling import critical_path_mapping
from repro.platform.mapping import Mapping
from repro.platform.platform import Platform
from repro.solvers.batch import solve_batch
from repro.solvers.context import SolverContext
from repro.solvers.dispatch import solve
from repro.solvers.registry import get_solver
from repro.solvers.pruned import (
    _build_instance,
    _dual_bound,
    _exec_energy,
    _switch_ratio,
    solve_tricrit_pruned,
    solve_tricrit_pruned_gap,
)
from tests.oracles import (
    best_reexec_subset,
    bisection_dual_bound,
    brentq_switch_ratio,
    closure_dual_bound,
)

REL = 1e-9
POOL = json.loads((Path(__file__).parent / "fixtures" / "pruned_pool.json")
                  .read_text())["instances"]


def chain_enumeration(problem):
    """The ``2^n`` chain subset enumeration, as one vectorized batch row."""
    [result] = solve_batch(ProblemBatch.from_problems([problem]),
                           "tricrit-chain-exact")
    return result


def make_problem(graph, num_processors, slack, *,
                 lambda0=1e-4, fmin=0.1, fmax=1.0) -> TriCritProblem:
    model = ReliabilityModel(fmin=fmin, fmax=fmax, lambda0=lambda0)
    platform = Platform(num_processors, ContinuousSpeeds(fmin, fmax),
                        reliability_model=model)
    mapping = critical_path_mapping(graph, num_processors, fmax=fmax).mapping
    augmented = mapping.augmented_graph()
    finish = {}
    for t in augmented.topological_order():
        s = max((finish[p] for p in augmented.predecessors(t)), default=0.0)
        finish[t] = s + graph.weight(t)
    deadline = slack * max(finish.values())
    return TriCritProblem(mapping, platform, deadline)


# ----------------------------------------------------------------------
# parity with the reference enumerators
# ----------------------------------------------------------------------
class TestChainParity:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(weights=st.lists(st.floats(min_value=0.0, max_value=8.0),
                            min_size=1, max_size=10),
           slack=st.floats(min_value=1.05, max_value=4.0),
           lambda0=st.sampled_from([1e-5, 1e-4, 1e-3]))
    # A tiny weight once turned the subset energies into 0/0.
    @example(weights=[1.0, 3.0716695484217615e-181], slack=3.0, lambda0=1e-5)
    def test_pruned_matches_chain_enumeration(self, weights, slack, lambda0):
        if not any(w > 0 for w in weights):
            weights = weights + [1.0]    # at least one positive task
        problem = make_problem(generators.chain(weights), 1, slack,
                               lambda0=lambda0)
        reference = chain_enumeration(problem)
        pruned = solve_tricrit_pruned(problem)
        assert pruned.feasible == reference.feasible
        if reference.feasible:
            assert pruned.status == "optimal"
            assert pruned.energy == pytest.approx(reference.energy, rel=REL)
        else:
            assert pruned.status == "infeasible"
            assert math.isinf(pruned.energy)

    def test_pruned_reexecution_set_is_reliable(self):
        problem = make_problem(generators.random_chain(9, seed=3), 1, 2.0,
                               lambda0=1e-3)
        result = solve_tricrit_pruned(problem)
        assert result.feasible
        report = problem.evaluate(result.require_schedule())
        assert report.feasible
        assert result.energy == pytest.approx(report.energy, rel=1e-6)

    def test_evaluation_count_is_far_below_two_to_the_n(self):
        # n = 14 would cost 16384 enumerated subsets; the pruned search must
        # certify the same optimum with a small fraction of that.
        problem = make_problem(generators.random_chain(14, seed=7), 1, 2.0,
                               lambda0=1e-3)
        reference = chain_enumeration(problem)
        pruned = solve_tricrit_pruned(problem)
        assert pruned.energy == pytest.approx(reference.energy, rel=REL)
        assert pruned.metadata["subsets_evaluated"] < 2 ** 14 / 8
        assert pruned.metadata["bound_evaluations"] > 0


class TestMultiProcessorParity:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("slack", [1.3, 2.0, 3.5])
    def test_fork_matches_exhaustive(self, seed, slack):
        problem = make_problem(generators.random_fork(6, seed=seed), 4, slack,
                               lambda0=1e-3)
        reference = solve_tricrit_exhaustive(problem)
        pruned = solve_tricrit_pruned(problem)
        assert pruned.feasible == reference.feasible
        if reference.feasible:
            assert pruned.energy == pytest.approx(reference.energy, rel=REL)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("slack", [1.3, 2.0, 3.5])
    def test_series_parallel_matches_exhaustive(self, seed, slack):
        problem = make_problem(
            generators.random_series_parallel(5, seed=seed), 2, slack,
            lambda0=1e-3)
        reference = solve_tricrit_exhaustive(problem)
        pruned = solve_tricrit_pruned(problem)
        assert pruned.feasible == reference.feasible
        if reference.feasible:
            assert pruned.energy == pytest.approx(reference.energy, rel=REL)

    def test_layered_dag_matches_exhaustive(self):
        problem = make_problem(generators.random_layered_dag(4, 3, seed=2),
                               3, 2.0, lambda0=1e-3)
        reference = solve_tricrit_exhaustive(problem)
        pruned = solve_tricrit_pruned(problem)
        assert pruned.energy == pytest.approx(reference.energy, rel=REL)

    @pytest.mark.parametrize("slack", [1.3, 2.0])
    def test_stacked_exhaustive_keeps_the_first_strict_minimum(self, slack):
        # The stacked enumeration against the scalar scan over the same
        # restricted solves: same subset, same bits.
        problem = make_problem(generators.random_layered_dag(3, 2, seed=1),
                               2, slack, lambda0=1e-3)
        ctx = SolverContext.for_problem(problem)
        stacked = solve_tricrit_exhaustive(problem)
        scalar = best_reexec_subset(
            ctx.positive_tasks,
            lambda subset: solve_with_reexec_set(problem, subset, context=ctx),
            solver_name="tricrit-exhaustive")
        assert stacked.energy == scalar.energy
        assert stacked.metadata == scalar.metadata
        assert stacked.schedule.decisions == scalar.schedule.decisions

    def test_evaluate_energy_is_the_schedule_energy(self):
        # Multi-processor evaluations keep no schedule; their energy must
        # still be Schedule.energy() of the schedule built at the end.
        problem = make_problem(generators.random_layered_dag(3, 3, seed=4),
                               3, 2.0, lambda0=1e-3)
        ctx = SolverContext.for_problem(problem)
        inst = _build_instance(problem, ctx)
        tasks = inst.tasks
        subsets = [frozenset(tasks[:k]) for k in range(len(tasks) + 1)]
        subsets += [frozenset(tasks[k::3]) for k in range(3)]
        evals = inst.evaluate_many(subsets)
        assert inst.evaluations == len(set(subsets))
        feasible = 0
        for subset, ev in zip(subsets, evals):
            restricted = solve_with_reexec_set(problem, subset, context=ctx)
            assert ev.feasible == restricted.feasible
            if not ev.feasible:
                continue
            feasible += 1
            result = inst.result_for(subset, "tricrit-pruned")
            assert ev.energy == result.require_schedule().energy() == restricted.energy
            assert result.schedule.decisions == restricted.schedule.decisions
            speeds = {t: d.executions[0].speeds[0]
                      for t, d in result.schedule.decisions.items()}
            assert reexec_energy(problem, speeds, subset) == \
                reexec_schedule(problem, speeds, subset).energy()
        assert feasible >= 2


# ----------------------------------------------------------------------
# the dual bound: valid, and no weaker than the bisection it replaced
# ----------------------------------------------------------------------
@st.composite
def partial_assignments(draw, states=("in", "out", "free")):
    """A small chain or layered DAG and a random In/Out/free assignment."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if draw(st.booleans()):
        graph = generators.random_chain(draw(st.integers(2, 8)), seed=seed)
        processors = 1
    else:
        graph = generators.random_layered_dag(draw(st.integers(2, 3)), 2,
                                              seed=seed)
        processors = draw(st.integers(2, 3))
    problem = make_problem(graph, processors,
                           draw(st.floats(min_value=1.05, max_value=4.0)),
                           lambda0=draw(st.sampled_from([1e-5, 1e-4, 1e-3])))
    states = draw(st.lists(st.sampled_from(states),
                           min_size=graph.num_tasks,
                           max_size=graph.num_tasks))
    return problem, states


def option_masks(inst, states):
    """``(allow_s, allow_r)`` for per-task states; ``closed`` shuts both."""
    allow_s = inst.single_ok.copy()
    allow_r = inst.reexec_ok.copy()
    for i, state in enumerate(states[:len(inst.tasks)]):
        allow_s[i] &= state not in ("in", "closed")
        allow_r[i] &= state not in ("out", "closed")
    return allow_s, allow_r


def assert_same_dual(got, want, *, rel=0.0):
    assert got[0] == pytest.approx(want[0], rel=rel, abs=0.0)
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


#: Exponents 1.05, 1.10, ..., 6.00.
ALPHA_GRID = [round(1.05 + 0.05 * k, 2) for k in range(100)]


def test_switch_ratio_within_8_ulp_of_brentq():
    for alpha in ALPHA_GRID:
        want = brentq_switch_ratio(alpha)
        assert abs(_switch_ratio(alpha) - want) <= 8 * math.ulp(want), alpha


class TestDualBound:
    @given(partial_assignments())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_valid_and_no_weaker_than_bisection(self, case):
        problem, states = case
        ctx = SolverContext.for_problem(problem)
        inst = _build_instance(problem, ctx)
        allow_s = inst.single_ok.copy()
        allow_r = inst.reexec_ok.copy()
        for i, state in enumerate(states[:len(inst.tasks)]):
            if state == "in" and allow_r[i]:
                allow_s[i] = False
            elif state == "out" and allow_s[i]:
                allow_r[i] = False
        bound = _dual_bound(inst, allow_s, allow_r)[0]
        old = bisection_dual_bound(inst, allow_s, allow_r)[0]
        assert bound >= old * (1.0 - 1e-12)
        # The best completion, through the enumerator tricrit-exhaustive
        # runs, restricted to the undecided tasks.
        base = [t for i, t in enumerate(inst.tasks) if not allow_s[i]]
        free = [t for i, t in enumerate(inst.tasks) if allow_s[i] and allow_r[i]]
        best = best_reexec_subset(
            free, lambda subset: solve_with_reexec_set(
                problem, [*base, *subset], context=ctx),
            solver_name="tricrit-exhaustive")
        if best.feasible:
            assert bound <= best.energy * (1.0 + REL)


    @given(partial_assignments(("in", "out", "free", "closed")),
           st.integers(min_value=0, max_value=23))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_tables_and_memo_match_the_closure_form(self, case, flip):
        # The per-processor tables give the closure form's bound, pick and
        # exactness; a memo hit -- the whole node again, or a child that
        # changes one task and so one processor -- returns what a cold
        # evaluation does.  Closed tasks and all-In masks that overrun the
        # deadline are drawn too.
        problem, states = case
        ctx = SolverContext.for_problem(problem)
        inst = _build_instance(problem, ctx)
        allow_s, allow_r = option_masks(inst, states)
        want = closure_dual_bound(inst, allow_s, allow_r)
        count = inst.bound_evaluations
        cold = _dual_bound(inst, allow_s, allow_r)
        assert_same_dual(cold, want, rel=1e-12)
        assert_same_dual(_dual_bound(inst, allow_s, allow_r), cold)
        assert inst.bound_evaluations == count + 2

        child = list(states)
        i = flip % len(child)
        child[i] = {"in": "out", "out": "free", "free": "in",
                    "closed": "free"}[child[i]]
        child_s, child_r = option_masks(inst, child)
        warm = _dual_bound(inst, child_s, child_r)
        fresh = _build_instance(problem, ctx)
        assert_same_dual(warm, _dual_bound(fresh, child_s, child_r))
        assert_same_dual(warm, closure_dual_bound(fresh, child_s, child_r),
                         rel=1e-12)

    def test_closed_or_overrunning_masks_have_no_bound(self):
        problem = make_problem(generators.random_chain(6, seed=4), 1, 1.2,
                               lambda0=1e-4)
        inst = _build_instance(problem, SolverContext.for_problem(problem))
        for states in (["free", "closed", "free", "out", "in", "free"],
                       ["in"] * 6):
            allow_s, allow_r = option_masks(inst, states)
            got = _dual_bound(inst, allow_s, allow_r)
            assert math.isinf(got[0]) and not got[2]
            assert_same_dual(got, closure_dual_bound(inst, allow_s, allow_r))

    @given(partial_assignments())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_switch_prices_are_the_option_crossings(self, case):
        # The closed-form price that orders the threshold incumbents is
        # where the dual's re-execution value overtakes the single one.
        problem, _ = case
        inst = _build_instance(problem, SolverContext.for_problem(problem))
        a = inst.exponent

        def overtake(i, lam):
            scale = ((a - 1.0) / lam) ** (1.0 / a)
            d_s = np.clip(inst.w[i] * scale, inst.lo_s[i], inst.hi_s[i])
            d_r = np.clip(2.0 * inst.w[i] * scale, inst.lo_r[i], inst.hi_r[i])
            return (_exec_energy(2.0 * inst.w[i], d_r, a) + lam * d_r
                    - _exec_energy(inst.w[i], d_s, a) - lam * d_s)

        for i in np.flatnonzero(inst.single_ok & inst.reexec_ok):
            tau = float(inst.tau[i])
            scale = max(tau, 1e-12)
            assert overtake(i, tau + 1e-6 * scale) > 0.0
            if tau > 0.0:
                assert overtake(i, tau - 1e-6 * scale) < 0.0

    def test_tasks_sharing_their_floors_tie_exactly(self):
        # Every re-execution floor clamps at fmin, so all switch prices are
        # one number and the threshold order keeps task order.  (Prices
        # recovered from the duration caps, w / (w / frel), differ in the
        # last bit once frel < fmax.)
        graph = generators.random_chain(12, seed=0)
        model = ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=1e-7, frel=0.7)
        platform = Platform(1, ContinuousSpeeds(0.1, 1.0),
                            reliability_model=model)
        problem = TriCritProblem(Mapping.single_processor(graph), platform,
                                 2.0 * graph.total_weight())
        inst = _build_instance(problem, SolverContext.for_problem(problem))
        assert len(set(inst.tau.tolist())) == 1


# ----------------------------------------------------------------------
# the served pool's searches, counted
# ----------------------------------------------------------------------
class TestNamedRoute:
    def test_named_pruned_on_a_small_chain_runs_the_search(self):
        # A chain the subset kernel could take: a named tricrit-pruned
        # request still runs (and counts) the branch and bound.  Thirteen
        # distinct weights put the class DP over its budget, so it branches.
        problem = make_problem(generators.random_chain(13, seed=4), 1, 2.0,
                               lambda0=1e-3)
        via_solve = solve(problem, "tricrit-pruned")
        direct = get_solver("tricrit-pruned")(problem)
        keys = ("nodes", "subsets_evaluated", "bound_evaluations")
        assert [via_solve.metadata[k] for k in keys] == \
            [direct.metadata[k] for k in keys]
        assert via_solve.solver == direct.solver == "tricrit-pruned"
        assert via_solve.energy == direct.energy


class TestPoolCounts:
    @pytest.mark.parametrize("row", POOL, ids=[r["label"] for r in POOL])
    def test_counts_and_answer_are_unchanged(self, row):
        # A faster bound must not change the search: same nodes, restricted
        # solves, bound evaluations and incumbent as when the fixture was
        # recorded.
        result = solve(problem_from_dict(row["problem"]), row["solver"])
        meta = result.metadata
        assert [meta["nodes"], meta["subsets_evaluated"],
                meta["bound_evaluations"]] == [row["nodes"],
                                               row["subsets_evaluated"],
                                               row["bound_evaluations"]]
        schedule = result.require_schedule()
        assert sorted(str(t) for t, d in schedule.decisions.items()
                      if d.is_reexecuted) == row["reexecuted"]
        assert result.energy == pytest.approx(row["energy"], rel=1e-12)
        assert meta["lower_bound"] == pytest.approx(row["lower_bound"],
                                                    rel=1e-12)


# ----------------------------------------------------------------------
# gap-certified mode
# ----------------------------------------------------------------------
class TestGapMode:
    def test_lower_bound_is_a_true_bound(self):
        # The certificate must bracket the enumerated optimum from below and
        # the (feasible) incumbent from above, and the reported gap must be
        # consistent with the two.
        problem = make_problem(generators.random_chain(12, seed=5), 1, 1.8,
                               lambda0=1e-3)
        optimum = chain_enumeration(problem).energy
        result = solve_tricrit_pruned_gap(problem)
        lb = result.metadata["lower_bound"]
        assert lb <= optimum * (1 + REL)
        assert result.energy >= optimum * (1 - REL)
        gap = result.metadata["optimality_gap"]
        assert gap >= (result.energy - lb) / result.energy - REL
        assert 0.0 <= gap <= 1.0

    def test_tiny_node_budget_still_returns_a_certificate(self):
        problem = make_problem(generators.random_chain(12, seed=5), 1, 1.8,
                               lambda0=1e-3)
        optimum = chain_enumeration(problem).energy
        result = solve_tricrit_pruned_gap(problem, node_budget=1,
                                          gap_target=0.0)
        assert result.feasible
        assert result.metadata["lower_bound"] <= optimum * (1 + REL)
        assert result.energy >= optimum * (1 - REL)

    def test_no_size_limit_in_gap_mode(self):
        problem = make_problem(generators.random_chain(60, seed=1), 1, 2.0,
                               lambda0=1e-3)
        result = solve_tricrit_pruned_gap(problem)
        assert result.feasible
        assert result.metadata["optimality_gap"] <= 0.05

    def test_exact_mode_rejects_oversized_instances(self):
        problem = make_problem(generators.random_chain(31, seed=1), 1, 2.0)
        with pytest.raises(ValueError, match="tricrit-pruned-gap"):
            solve_tricrit_pruned(problem, max_tasks=30)


# ----------------------------------------------------------------------
# degenerate platforms and edge cases
# ----------------------------------------------------------------------
class TestDegenerateInstances:
    def test_single_speed_platform(self):
        # fmin == fmax: the water-filling bracket is a point; the solver must
        # not bisect it into a crash and must agree with the enumerator.
        problem = make_problem(generators.random_chain(5, seed=9), 1, 3.0,
                               fmin=1.0, fmax=1.0, lambda0=1e-3)
        reference = solve_tricrit_chain_exact(problem)
        pruned = solve_tricrit_pruned(problem)
        assert pruned.feasible == reference.feasible
        if reference.feasible:
            assert pruned.energy == pytest.approx(reference.energy, rel=REL)

    def test_zero_slack_deadline(self):
        # Deadline exactly the fmax makespan: feasible, nothing re-executed.
        graph = generators.random_chain(6, seed=2)
        problem = make_problem(graph, 1, 1.0)
        reference = solve_tricrit_chain_exact(problem)
        pruned = solve_tricrit_pruned(problem)
        assert pruned.feasible == reference.feasible
        if reference.feasible:
            assert pruned.energy == pytest.approx(reference.energy, rel=REL)
            assert pruned.metadata["reexecuted"] == []

    def test_infeasible_deadline_reports_infeasible(self):
        graph = generators.chain([4.0, 4.0])
        problem = make_problem(graph, 1, 0.5)
        result = solve_tricrit_pruned(problem)
        assert result.status == "infeasible"
        assert not result.feasible
        assert math.isinf(result.energy)

    def test_zero_weight_tasks_do_not_count_against_limits(self):
        weights = [1.0] * 8 + [0.0] * 30    # 38 tasks, 8 positive
        problem = make_problem(generators.chain(weights), 1, 2.0,
                               lambda0=1e-3)
        reference = solve_tricrit_chain_exact(problem)
        pruned = solve_tricrit_pruned(problem)    # 38 > 30 but 8 positive
        assert pruned.energy == pytest.approx(reference.energy, rel=REL)

    def test_zero_weight_task_ignores_a_frel_above_fmax(self):
        # The problem's reliability model sets frel = 1.5 above the
        # platform's fmax = 1: every positive task must be re-executed, and
        # the zero-weight task, which takes no time, must not make the
        # subset infeasible in the restricted solve the pruned search ends on.
        graph = generators.chain([1.0, 0.0, 2.0])
        platform = Platform(1, ContinuousSpeeds(0.1, 1.0))
        model = ReliabilityModel(fmin=0.1, fmax=2.0, lambda0=1e-4, frel=1.5)
        problem = TriCritProblem(Mapping.single_processor(graph), platform,
                                 12.0, reliability_model=model)
        pruned = solve_tricrit_pruned(problem)
        assert pruned.feasible and pruned.schedule is not None
        assert pruned.metadata["reexecuted"] == ["T0", "T2"]
        restricted = solve_with_reexec_set(problem, ["T0", "T2"])
        assert restricted.feasible
        assert pruned.energy == restricted.energy
        for reference in (solve_tricrit_chain_exact(problem),
                          solve_tricrit_exhaustive(problem),
                          chain_enumeration(problem)):
            assert reference.energy == pytest.approx(pruned.energy, rel=REL)


# ----------------------------------------------------------------------
# infeasibility propagation (reference records and the API boundary)
# ----------------------------------------------------------------------
class TestInfeasibilityPropagation:
    def _infeasible_problem(self) -> TriCritProblem:
        return make_problem(generators.chain([4.0, 4.0]), 1, 0.5)

    def test_best_of_heuristics_raises(self):
        with pytest.raises(InfeasibleProblemError):
            best_of_heuristics(self._infeasible_problem())

    def test_best_known_raises_on_every_tier(self):
        problem = self._infeasible_problem()
        with pytest.raises(InfeasibleProblemError):
            best_known_tricrit(problem)                       # exhaustive tier
        with pytest.raises(InfeasibleProblemError):
            best_known_tricrit(problem, exhaustive_limit=1)   # pruned tier

    def test_api_reports_infeasible_problem_code(self):
        engine = api.Engine()
        request = api.SolveRequest(
            problem=problem_to_dict(self._infeasible_problem()),
            solver="tricrit-best-of")
        with pytest.raises(ApiError) as info:
            engine.solve(request)
        assert info.value.code == INFEASIBLE_PROBLEM
        assert info.value.http_status == 422

"""Property-based equivalence of ``solve_batch`` against each solver's own
entry point.

The batched kernel (``repro.solvers.batch``) must agree with calling each
instance's solver through its descriptor: for randomized chains, forks
and series-parallel instances, every admissible solver and the ``auto``
dispatch must produce the same statuses, energies and (when materialised)
feasible schedules, whether evaluated per instance or as one batch.  The
TRI-CRIT chain kernel is also the chain solver's own entry point, so it is
checked against the scalar subset enumeration of ``tests/oracles.py``.  The
vectorized kernels (chain/fork closed forms, the TRI-CRIT chain subset
table, the vectorized re-execution floors) are additionally checked to have
actually engaged, so these tests cannot silently pass through the scalar
fallback.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.continuous.tricrit_chain import solve_tricrit_chain_exact
from repro.core.energy import EnergyModel
from repro.core.problems import BiCritProblem, TriCritProblem
from repro.core.reliability import ReliabilityModel, equal_reexecution_floor
from repro.core.speeds import ContinuousSpeeds
from repro.dag import generators
from repro.platform.mapping import Mapping
from repro.platform.platform import Platform
from repro.solvers import (
    InadmissibleSolverError,
    SolverContext,
    admissible_solvers,
    batch_is_feasible,
    get_solver,
    plan_batch,
    select_solver,
    solve_batch,
)
from repro.solvers import batch as batch_module
from repro.solvers.batch import (
    KERNEL_CHAIN,
    KERNEL_FORK,
    KERNEL_SCALAR,
    KERNEL_TRICRIT_CHAIN,
    LazyScheduleResult,
    _scalar_solve,
)

from tests.oracles import scalar_chain_enumeration

# ----------------------------------------------------------------------
# instance builders (plain functions so fresh problems are cheap to remake)
# ----------------------------------------------------------------------
# Weights are either exactly zero (exercising the zero-weight task paths)
# or of sane magnitude -- denormal-scale weights make the *scalar* scipy
# fallback overflow, which is not the equivalence under test here.
weight_strategy = st.one_of(st.just(0.0),
                            st.floats(min_value=1e-2, max_value=8.0))
weights_strategy = st.lists(weight_strategy, min_size=1, max_size=5)


def chain_problem(weights, slack, fmin=0.1, fmax=1.0):
    graph = generators.chain(weights)
    mapping = Mapping.single_processor(graph)
    platform = Platform(1, ContinuousSpeeds(fmin, fmax))
    deadline = max(slack * graph.total_weight() / fmax, 1e-6)
    return BiCritProblem(mapping, platform, deadline)


def fork_problem(source_weight, child_weights, slack, fmin=0.05, fmax=2.0,
                 alpha=3.0):
    graph = generators.fork(source_weight, child_weights)
    mapping = Mapping.one_task_per_processor(graph)
    platform = Platform(len(child_weights) + 1, ContinuousSpeeds(fmin, fmax),
                        energy_model=EnergyModel(exponent=alpha))
    deadline = max(slack * graph.critical_path_weight() / fmax, 1e-6)
    return BiCritProblem(mapping, platform, deadline)


def tricrit_chain_problem(weights, slack, lambda0=1e-4, frel=None):
    graph = generators.chain(weights)
    mapping = Mapping.single_processor(graph)
    reliability = ReliabilityModel(fmin=0.1, fmax=1.0, lambda0=lambda0,
                                   sensitivity=3.0, frel=frel)
    platform = Platform(1, ContinuousSpeeds(0.1, 1.0),
                        reliability_model=reliability)
    deadline = max(slack * graph.total_weight(), 1e-6)
    return TriCritProblem(mapping, platform, deadline)


def sp_problem(size, seed, slack):
    graph = generators.random_series_parallel(size, seed=seed)
    mapping = Mapping.one_task_per_processor(graph)
    platform = Platform(graph.num_tasks, ContinuousSpeeds(0.001, 50.0))
    deadline = max(slack * graph.critical_path_weight(), 1e-6)
    return BiCritProblem(mapping, platform, deadline)


def assert_results_match(scalar, batch, problem, *, rel=1e-7):
    """Scalar and batched results must agree on status, energy and schedule."""
    assert batch.status == scalar.status
    assert batch.solver == scalar.solver
    if math.isfinite(scalar.energy) or math.isfinite(batch.energy):
        assert batch.energy == pytest.approx(scalar.energy, rel=rel, abs=1e-9)
    if scalar.schedule is None:
        assert batch.schedule is None
        return
    materialised = batch.schedule
    assert materialised is not None
    assert materialised.energy() == pytest.approx(scalar.schedule.energy(),
                                                  rel=rel, abs=1e-9)
    # A feasible scalar schedule implies a feasible batched one (same
    # constraints, possibly a different but equally good optimum).
    if isinstance(problem, TriCritProblem):
        model = problem.reliability()
        assert scalar.schedule.is_feasible(problem.deadline,
                                           check_reliability=True,
                                           reliability_model=model) \
            == materialised.is_feasible(problem.deadline,
                                        check_reliability=True,
                                        reliability_model=model)
    else:
        assert scalar.schedule.is_feasible(problem.deadline) \
            == materialised.is_feasible(problem.deadline)


def descriptor_solve(problem, solver):
    """The solver's own entry point through its descriptor, outside the
    batch pipeline (``"auto"`` runs the solver dispatch would select)."""
    descriptor = (select_solver(problem) if solver == "auto"
                  else get_solver(solver))
    return descriptor(problem)


def roundtrip(problems, fresh, solver):
    """Solve per instance through the descriptors, then re-build fresh
    instances and solve them as a batch."""
    scalar = [descriptor_solve(p, solver) for p in problems]
    batch = solve_batch(fresh, solver=solver)
    for s, b, p in zip(scalar, batch, fresh):
        assert_results_match(s, b, p)
    return scalar, batch


# ----------------------------------------------------------------------
# property suites, one per vectorized kernel
# ----------------------------------------------------------------------
class TestChainClosedFormEquivalence:
    @given(st.lists(weights_strategy, min_size=1, max_size=3),
           st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=15, deadline=None)
    def test_batch_matches_scalar_for_every_admissible_solver(self, batches,
                                                              slack):
        problems = [chain_problem(w, slack) for w in batches]
        for name in ["auto"] + [s.name for s in admissible_solvers(problems[0])]:
            roundtrip(problems,
                      [chain_problem(w, slack) for w in batches], name)

    @given(st.lists(weights_strategy, min_size=2, max_size=6),
           st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=25, deadline=None)
    def test_chain_kernel_engages(self, batches, slack):
        problems = [chain_problem(w, slack) for w in batches]
        plan = plan_batch(problems, "bicrit-closed-form")
        assert plan.kernel_counts() == {KERNEL_CHAIN: len(problems)}


class TestForkClosedFormEquivalence:
    @given(st.lists(st.tuples(weight_strategy,
                              st.lists(weight_strategy,
                                       min_size=1, max_size=4)),
                    min_size=1, max_size=3),
           st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=15, deadline=None)
    def test_batch_matches_scalar_for_every_admissible_solver(self, specs,
                                                              slack):
        problems = [fork_problem(w0, kids, slack) for w0, kids in specs]
        for name in ["auto"] + [s.name for s in admissible_solvers(problems[0])]:
            roundtrip(problems,
                      [fork_problem(w0, kids, slack) for w0, kids in specs],
                      name)

    @given(st.floats(min_value=0.1, max_value=6.0),
           st.lists(st.floats(min_value=0.1, max_value=6.0),
                    min_size=1, max_size=5),
           st.floats(min_value=0.6, max_value=3.0))
    @settings(max_examples=25, deadline=None)
    def test_fork_kernel_engages(self, w0, kids, slack):
        problems = [fork_problem(w0, kids, slack)]
        plan = plan_batch(problems, "bicrit-closed-form")
        assert plan.kernel_counts() == {KERNEL_FORK: 1}

    def test_row_alone_equals_the_row_beside_a_wider_fork(self):
        # The fork kernel pads child weights to the batch's widest fork; a
        # row's answer must not move, not even in the last bit, when a
        # 12-child fork widens that padding.
        def fork(k):
            children = 2 + k % 6
            weights = generators.random_weights(children + 1, seed=k,
                                                low=0.1, high=5.0)
            return fork_problem(weights[0], list(weights[1:]),
                                1.05 + 0.2 * (k % 10),
                                alpha=(2.0, 2.5, 3.0)[k % 3])

        wide = fork_problem(1.0, list(np.linspace(0.5, 3.0, 12)), 2.0)
        beside = solve_batch([wide] + [fork(k) for k in range(200)])[1:]
        for k, row in enumerate(beside):
            [alone] = solve_batch([fork(k)])
            assert (alone.status, alone.energy) == (row.status, row.energy)
            assert getattr(alone, "wire_view", None) \
                == getattr(row, "wire_view", None)


class TestTriCritChainEquivalence:
    @given(st.lists(st.lists(weight_strategy, min_size=1, max_size=3),
                    min_size=1, max_size=2),
           st.floats(min_value=1.0, max_value=4.0),
           st.sampled_from([1e-5, 1e-4, 1e-3]))
    @settings(max_examples=6, deadline=None)
    def test_batch_matches_scalar_for_every_admissible_solver(self, batches,
                                                              slack, lambda0):
        problems = [tricrit_chain_problem(w, slack, lambda0) for w in batches]
        for name in ["auto"] + [s.name for s in admissible_solvers(problems[0])]:
            roundtrip(problems,
                      [tricrit_chain_problem(w, slack, lambda0)
                       for w in batches], name)

    @given(st.lists(st.floats(min_value=0.1, max_value=5.0),
                    min_size=1, max_size=4),
           st.floats(min_value=1.0, max_value=4.0))
    @settings(max_examples=25, deadline=None)
    def test_subset_kernel_engages_and_floors_are_batched(self, weights, slack):
        problem = tricrit_chain_problem(weights, slack)
        plan = plan_batch([problem], "tricrit-chain-exact")
        assert plan.kernel_counts() == {KERNEL_TRICRIT_CHAIN: 1}
        # The vectorized floors must equal the context's scalar floors.
        reference = tricrit_chain_problem(weights, slack).context()
        model = reference.reliability
        tasks = list(reference.positive_tasks)
        per_task = [np.full(len(tasks), x) for x in (
            model.fmin, model.fmax, model.lambda0, model.sensitivity,
            model.frel)]
        floors = np.maximum(problem.platform.fmin, equal_reexecution_floor(
            np.array([reference.graph.weight(t) for t in tasks]), *per_task))
        for task, floor in zip(tasks, floors):
            assert floor == pytest.approx(reference.reexecution_floor(task),
                                          rel=1e-9, abs=1e-12)


    @given(st.lists(st.tuples(st.lists(st.floats(min_value=0.1, max_value=5.0),
                                       min_size=1, max_size=4),
                              st.floats(min_value=1.0, max_value=6.0)),
                    min_size=2, max_size=6),
           st.sampled_from([1e-5, 1e-4, 1e-3]))
    @example(rows=[([1.0, 2.0], 2.5 + i) for i in range(4)], lambda0=1e-4)
    @settings(max_examples=15, deadline=None)
    def test_each_row_equals_the_row_solved_alone(self, rows, lambda0):
        # Each cell is filled on its own, so the other rows of a batch
        # cannot move a row's answer, not even in the last bit.
        together = solve_batch([tricrit_chain_problem(w, slack, lambda0)
                                for w, slack in rows])
        for (w, slack), row in zip(rows, together):
            [alone] = solve_batch([tricrit_chain_problem(w, slack, lambda0)])
            assert alone.energy == row.energy
            assert alone.metadata.get("reexecuted") == row.metadata.get("reexecuted")
            if row.feasible:
                assert alone.wire_view == row.wire_view


    @given(st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=1,
                    max_size=7, unique=True),
           st.floats(min_value=1.0, max_value=4.0),
           st.sampled_from([1e-5, 1e-4, 1e-3]),
           st.sampled_from([None, 0.8, 0.6]))
    @example(weights=[0.3 + 0.41 * i for i in range(12)], slack=1.6,
             lambda0=1e-4, frel=0.7)
    @settings(max_examples=30, deadline=None)
    def test_kernel_matches_the_scalar_subset_enumeration(self, weights,
                                                          slack, lambda0,
                                                          frel):
        # The kernel's exact fill against the scalar water-fill of
        # solve_with_reexec_set over the same 2^n subsets.  Distinct
        # weights leave no two subsets tied in exact arithmetic; with
        # frel < fmax the single runs are free too, not pinned at fmax.
        def problem():
            return tricrit_chain_problem(weights, slack, lambda0, frel)

        [kernel] = solve_batch([problem()])
        scalar = scalar_chain_enumeration(problem())
        assert kernel.status == scalar.status
        assert kernel.metadata["subsets_evaluated"] \
            == scalar.metadata["subsets_evaluated"] == 2 ** len(weights)
        if scalar.feasible:
            assert abs(kernel.energy - scalar.energy) <= 1e-12 * scalar.energy
            assert kernel.metadata["reexecuted"] == scalar.metadata["reexecuted"]


    @pytest.mark.parametrize("slack", [1.6, 3.5])
    def test_subset_chunks_leave_the_row_unchanged(self, slack, monkeypatch):
        # A 40-cell budget splits the 256 subsets of an 8-task row into
        # chunks of 5; the first strict minimum across chunks is the one
        # the single tensor finds, bit for bit.
        def problem():
            return tricrit_chain_problem([0.3 + 0.41 * i for i in range(8)],
                                         slack, 1e-4, 0.7)

        whole = solve_tricrit_chain_exact(problem())
        [whole_row] = solve_batch([problem()])
        monkeypatch.setattr(batch_module, "_SUBSET_TENSOR_BUDGET", 40)
        chunked = solve_tricrit_chain_exact(problem())
        [chunked_row] = solve_batch([problem()])
        assert whole.metadata["reexecuted"]
        assert chunked.energy == whole.energy == whole_row.energy \
            == chunked_row.energy
        assert chunked.metadata == whole.metadata
        assert chunked.schedule.speed_assignment() \
            == whole.schedule.speed_assignment()
        assert chunked_row.wire_view == whole_row.wire_view

    def test_row_chunks_leave_the_rows_unchanged(self, monkeypatch):
        # A budget of two rows' worth of subsets splits a 5-row batch of
        # 8-task chains into row chunks of 2, 2 and 1.
        def problems():
            return [tricrit_chain_problem([0.3 + 0.41 * i + 0.07 * k
                                           for i in range(8)],
                                          1.4 + 0.5 * k, 1e-4, 0.7)
                    for k in range(5)]

        whole = solve_batch(problems())
        monkeypatch.setattr(batch_module, "_SUBSET_TENSOR_BUDGET",
                            2 * 256 * 8)
        chunked = solve_batch(problems())
        assert [r.energy for r in chunked] == [r.energy for r in whole]
        assert [r.wire_view for r in chunked] == [r.wire_view for r in whole]
        assert [r.metadata for r in chunked] == [r.metadata for r in whole]


class TestSeriesParallelFallback:
    @given(st.integers(min_value=3, max_value=9),
           st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.8, max_value=3.0))
    @settings(max_examples=15, deadline=None)
    def test_sp_instances_fall_back_and_match(self, size, seed, slack):
        problem = sp_problem(size, seed, slack)
        ctx = SolverContext.for_problem(problem)
        plan = plan_batch([problem], "auto")
        if ctx.is_single_processor or ctx.is_fork:
            return  # degenerate SP draw handled by a vectorized kernel
        assert plan.kernel_counts() == {KERNEL_SCALAR: 1}
        scalar = descriptor_solve(sp_problem(size, seed, slack), "auto")
        [batch] = solve_batch([sp_problem(size, seed, slack)])
        assert_results_match(scalar, batch, problem)


class TestMixedAutoDispatch:
    @given(st.lists(weights_strategy, min_size=1, max_size=2),
           st.lists(st.lists(weight_strategy, min_size=1, max_size=3),
                    min_size=1, max_size=2),
           st.floats(min_value=1.0, max_value=3.0))
    @settings(max_examples=6, deadline=None)
    def test_auto_choice_and_results_match_across_kinds(self, chain_batches,
                                                        tricrit_batches, slack):
        def build():
            problems = [chain_problem(w, slack) for w in chain_batches]
            problems += [fork_problem(2.0, w, slack) for w in chain_batches]
            problems += [tricrit_chain_problem(w, slack)
                         for w in tricrit_batches]
            problems.append(sp_problem(5, 42, slack))
            return problems

        scalar = [descriptor_solve(p, "auto") for p in build()]
        fresh = build()
        batch = solve_batch(fresh)
        for s, b, p in zip(scalar, batch, fresh):
            assert_results_match(s, b, p)
            assert b.metadata["dispatch"]["solver"] == select_solver(p).name
            assert b.metadata["dispatch"]["auto"] is True


# ----------------------------------------------------------------------
# non-property behaviour of the batch front door
# ----------------------------------------------------------------------
class TestBatchFrontDoor:
    def test_named_solver_validates_like_scalar(self):
        problem = fork_problem(2.0, [1.0, 3.0], 2.0)
        with pytest.raises(InadmissibleSolverError):
            get_solver("tricrit-chain-exact")(problem)
        with pytest.raises(InadmissibleSolverError):
            solve_batch([problem], solver="tricrit-chain-exact")

    def test_unknown_solver_raises_like_scalar(self):
        problem = chain_problem([1.0, 2.0], 2.0)
        with pytest.raises(KeyError):
            solve_batch([problem], solver="no-such-solver")

    def test_options_force_scalar_fallback(self):
        problems = [chain_problem([1.0, 2.0, 3.0], 2.0) for _ in range(3)]
        plan = plan_batch(problems, "bicrit-closed-form", vectorize=False)
        assert plan.kernel_counts() == {KERNEL_SCALAR: 3}
        batch = solve_batch(problems, solver="bicrit-closed-form",
                            prefer_closed_form=True)
        scalar = [get_solver("bicrit-closed-form")(p, prefer_closed_form=True)
                  for p in problems]
        for s, b, p in zip(scalar, batch, problems):
            assert_results_match(s, b, p)

    def test_lazy_schedule_materialises_once(self):
        [result] = solve_batch([chain_problem([1.0, 2.0], 2.0)])
        assert isinstance(result, LazyScheduleResult)
        first = result.schedule
        assert first is result.schedule     # memoised, not rebuilt
        assert result.require_schedule() is first

    def test_object_rows_build_against_their_problem(self):
        problems = [chain_problem([1.0, 2.0], 2.0),
                    fork_problem(2.0, [1.0, 3.0], 2.0),
                    tricrit_chain_problem([1.0, 2.0], 3.0)]
        results = solve_batch(problems)
        assert all(isinstance(r, LazyScheduleResult) for r in results)
        for problem, result in zip(problems, results):
            assert result.schedule.mapping is problem.mapping

    def test_lazy_metadata_equals_scalar_metadata(self):
        # The per-row route builds the dispatch record from the solver
        # context; the kernel builds it from the columns.
        problem = chain_problem([1.0, 2.0, 3.0], 2.0)
        scalar = _scalar_solve(problem, get_solver("bicrit-closed-form"),
                               auto=False)
        [batch] = solve_batch([chain_problem([1.0, 2.0, 3.0], 2.0)],
                              solver="bicrit-closed-form")
        assert batch.metadata["dispatch"] == scalar.metadata["dispatch"]
        assert set(batch.metadata) == set(scalar.metadata)
        assert batch.metadata["route"] == scalar.metadata["route"]

    def test_results_preserve_input_order(self):
        chains = [chain_problem([float(i + 1)], 2.0) for i in range(4)]
        forks = [fork_problem(1.0, [float(i + 1)], 2.0) for i in range(4)]
        mixed = [p for pair in zip(chains, forks) for p in pair]
        results = solve_batch(mixed)
        for problem, result in zip(mixed, results):
            assert result.feasible
            route = result.metadata["route"]
            expected = "chain" if problem.mapping.is_single_processor() else "fork"
            assert route == expected

    def test_batch_is_feasible_matches_context(self):
        problems = [chain_problem([1.0, 2.0], 0.5),      # infeasible (tight)
                    chain_problem([1.0, 2.0], 2.0),
                    fork_problem(2.0, [1.0, 3.0], 2.0),
                    sp_problem(5, 7, 2.0)]
        verdicts = batch_is_feasible(problems)
        for problem, verdict in zip(problems, verdicts):
            fresh = BiCritProblem(problem.mapping, problem.platform,
                                  problem.deadline)
            assert bool(verdict) == SolverContext.for_problem(fresh).is_feasible

    def test_padded_tricrit_chain_admitted_like_scalar(self):
        # 23 mapped tasks but only 10 positive: every limit check counts
        # positive-weight tasks, so the instance is admissible through both
        # the descriptor and the batch planner (which may still vectorize
        # it) -- and both agree on the optimum.
        weights = [1.0] * 10 + [0.0] * 13
        scalar = get_solver("tricrit-chain-exact")(
            tricrit_chain_problem(weights, 3.0))
        plan = plan_batch([tricrit_chain_problem(weights, 3.0)],
                          "tricrit-chain-exact")
        assert plan.kernel_counts() == {KERNEL_TRICRIT_CHAIN: 1}
        [batch] = solve_batch([tricrit_chain_problem(weights, 3.0)],
                              solver="tricrit-chain-exact")
        assert scalar.status == batch.status == "optimal"
        assert batch.energy == pytest.approx(scalar.energy, rel=1e-9)

    def test_oversized_tricrit_chain_raises_like_scalar(self):
        # 23 positive-weight tasks genuinely exceed the enumeration limit:
        # scalar and batch dispatch must reject with the same admissibility
        # error (neither path silently truncates or falls back).
        weights = [1.0] * 23
        with pytest.raises(ValueError, match="positive-weight tasks, limit is"):
            get_solver("tricrit-chain-exact")(
                tricrit_chain_problem(weights, 3.0))
        with pytest.raises(ValueError, match="positive-weight tasks, limit is"):
            solve_batch([tricrit_chain_problem(weights, 3.0)],
                        solver="tricrit-chain-exact")

    def test_chain_past_the_enumeration_cap_dispatches_like_its_descriptors(self):
        # 15 positive tasks: the chain enumeration is inadmissible, so auto
        # dispatch runs the pruned search and the named enumeration raises.
        def problem():
            return tricrit_chain_problem([1.0 + 0.1 * i for i in range(15)],
                                         2.0)

        assert plan_batch([problem()]).kernel_counts() == {KERNEL_SCALAR: 1}
        [auto] = solve_batch([problem()])
        assert auto.metadata["dispatch"]["solver"] == auto.solver \
            == select_solver(problem()).name == "tricrit-pruned"
        with pytest.raises(InadmissibleSolverError):
            solve_batch([problem()], solver="tricrit-chain-exact")

    def test_tiny_weight_tricrit_chain_matches_scalar(self):
        # w^alpha / d^(alpha-1) underflowed to 0/0 here: the kernel called
        # the instance infeasible and the scalar enumeration kept the empty
        # re-execution set.  Both re-execute T0 at speed 2/3.
        weights = [1.0, 3.0716695484217615e-181]
        scalar = scalar_chain_enumeration(
            tricrit_chain_problem(weights, 3.0, lambda0=1e-5))
        [batch] = solve_batch([tricrit_chain_problem(weights, 3.0,
                                                     lambda0=1e-5)])
        assert scalar.energy == pytest.approx(2 * (2 / 3) ** 2, rel=1e-9)
        assert batch.energy == pytest.approx(scalar.energy, rel=1e-9)
        assert batch.metadata["reexecuted"] == ["T0"]

    def test_infeasible_chain_status_matches(self):
        problem = chain_problem([4.0, 4.0], 0.5)   # needs speed > fmax
        scalar = descriptor_solve(BiCritProblem(problem.mapping,
                                                problem.platform,
                                                problem.deadline), "auto")
        [batch] = solve_batch([problem])
        assert scalar.status == batch.status == "infeasible"
        assert batch.schedule is None
        assert batch.metadata["message"] == scalar.metadata["message"]

"""TRI-CRIT CONTINUOUS heuristics for general mapped DAGs.

Section III of the paper describes two *complementary* families of
heuristics, both built on the failure probabilities, task weights and
processor speeds:

* the first family generalises the **linear-chain strategy** ("first slow
  the execution of all tasks equally, then choose the tasks to be
  re-executed"): it is driven by the estimated *energy gain* of re-executing
  a task at a much lower speed -- :func:`heuristic_energy_gain`;
* the second family generalises the **fork strategy** ("highly
  parallelizable tasks should be preferred when allocating time slots for
  re-execution or deceleration"): it is driven by the scheduling *slack* of
  each task -- :func:`heuristic_parallel_slack`.

"Altogether, taking the best result out of those two heuristics always gives
the best result over all simulations" -- :func:`best_of_heuristics`.

Both heuristics share the same machinery:

1. the *restricted problem* for a fixed re-execution set is the BI-CRIT
   problem where a re-executed task has effective weight ``2 w_i`` and a
   speed floor equal to the slowest equal-speed pair meeting the
   reliability threshold, while a single-execution task has speed floor
   ``f_rel``.  :func:`solve_reexec_sets` is the library's one solve of it,
   for any number of subsets: on one processor the bounded water-filling
   of :func:`~repro.optimize.allocation.allocate_durations_with_bounds`,
   on any other mapping the compiled convex program of
   :mod:`repro.continuous.convex`, in stacks.  :func:`solve_with_reexec_set`
   is a stack of one with its schedule built; the subset enumerations, the
   greedy rounds (:func:`greedy_round`, shared with the chain greedy) and
   the pruned search run stacks and build one schedule, for the subset
   they keep (the exact chain enumeration water-fills all its subsets at
   once, in :func:`repro.solvers.batch.chain_subset_minimum`);
2. the heuristic grows the re-execution set greedily, at each round scoring
   the candidate tasks with its family-specific criterion, fully re-solving
   the restricted problem for the few best candidates (one stack), and
   accepting the best improvement until none remains.
"""

from __future__ import annotations

import math
from collections.abc import Container, Iterable, Iterator, Mapping as TMapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.problems import InfeasibleProblemError, SolveResult, TriCritProblem
from ..core.schedule import Schedule, TaskDecision
from ..dag.taskgraph import TaskId
from ..optimize.allocation import allocate_durations_with_bounds
from ..solvers.context import SolverContext
from .convex import STACK_ROWS

__all__ = [
    "RestrictedSolve",
    "solve_with_reexec_set",
    "solve_reexec_sets",
    "reexec_energy",
    "solve_tricrit_no_reexec",
    "heuristic_energy_gain",
    "heuristic_parallel_slack",
    "best_of_heuristics",
    "TRICRIT_HEURISTICS",
]


#: Why a subset with a speed floor above the platform's ``fmax`` is infeasible.
_TOO_FAST = "a reliability speed floor exceeds fmax"


def _restricted_waterfill(problem: TriCritProblem, reexec: frozenset[TaskId],
                          ctx: SolverContext) -> tuple[dict[TaskId, float] | None, str]:
    """The restricted problem on one processor: bounded water-filling.

    Every task serialises within the deadline, so the convex program
    reduces to :func:`~repro.optimize.allocation.allocate_durations_with_bounds`
    over the processor's task order -- the paper's "slow every task
    equally", with each task clamped to its own speed floor.  Returns the
    speed of every positive-weight task, or ``None`` and the reason the
    subset is infeasible.
    """
    platform = problem.platform
    order = problem.mapping.tasks_on(0)
    frel = max(ctx.reliability.frel, platform.fmin)
    w = np.array([problem.graph.weight(t) for t in order])
    twice = np.array([t in reexec for t in order], dtype=bool)
    effective = np.where(twice, 2.0 * w, w)
    floor = np.array([ctx.reexecution_floor(t) if r else frel
                      for t, r in zip(order, twice)])
    positive = effective > 0
    # Zero-weight tasks take no time and carry no reliability floor.
    if np.any(positive & (floor > platform.fmax * (1.0 + 1e-12))):
        return None, _TOO_FAST
    lower = np.where(positive, effective / platform.fmax, 0.0)
    upper = np.where(positive, effective / floor, 0.0)
    try:
        alloc = allocate_durations_with_bounds(
            effective, problem.deadline, lower, upper,
            exponent=platform.energy_model.exponent)
    except ValueError as exc:
        return None, str(exc)
    return {t: float(e / d)
            for t, e, d, p in zip(order, effective, alloc.durations, positive)
            if p}, ""


@dataclass
class RestrictedSolve:
    """One re-execution subset's restricted solve, before any schedule.

    ``speeds`` holds every positive-weight task's speed, ``None`` when the
    subset is infeasible; ``energy`` is the energy of the schedule
    :meth:`result` builds, by the same float expression
    (:func:`reexec_energy`), so a search can rank subsets and build one
    schedule, for the subset it keeps.
    """

    reexec: frozenset[TaskId]
    speeds: dict[TaskId, float] | None
    energy: float
    metadata: dict[str, Any]

    @property
    def feasible(self) -> bool:
        return self.speeds is not None

    def result(self, problem: TriCritProblem, solver_name: str) -> SolveResult:
        """The :class:`SolveResult` of :func:`solve_with_reexec_set`."""
        if self.speeds is None:
            return SolveResult(schedule=None, energy=math.inf, status="infeasible",
                               solver=solver_name, metadata=dict(self.metadata))
        schedule = reexec_schedule(problem, self.speeds, self.reexec)
        return SolveResult(schedule=schedule, energy=schedule.energy(), status="feasible",
                           solver=solver_name, metadata=dict(self.metadata))


def _restricted(problem: TriCritProblem, reexec: frozenset[TaskId],
                speeds: dict[TaskId, float] | None, message: str,
                convex: tuple[str, float] | None) -> RestrictedSolve:
    """A :class:`RestrictedSolve` with :func:`solve_with_reexec_set`'s
    metadata; ``convex`` is the convex program's status and gap, if one ran."""
    metadata: dict[str, Any] = {"reexecuted": sorted(map(str, reexec))}
    if speeds is None:
        metadata["message"] = message
        return RestrictedSolve(reexec, None, math.inf, metadata)
    if convex is not None:
        metadata["convex_status"], metadata["convex_gap"] = convex
    return RestrictedSolve(reexec, speeds, reexec_energy(problem, speeds, reexec), metadata)


def solve_with_reexec_set(problem: TriCritProblem, reexec: Iterable[TaskId], *,
                          solver_name: str = "tricrit-restricted",
                          context: SolverContext | None = None) -> SolveResult:
    """Optimal continuous speeds for a *fixed* re-execution set.

    :func:`solve_reexec_sets` on a stack of one, with the schedule built.
    Returns an infeasible :class:`SolveResult` when even the maximum speeds
    cannot accommodate the chosen re-executions within the deadline, or a
    speed floor exceeds ``fmax``; raises ``ValueError`` for a re-executed
    task that is not in the problem.
    """
    ctx = context if context is not None else SolverContext.for_problem(problem)
    chosen = tuple(reexec)
    unknown = [t for t in chosen if t not in problem.graph]
    if unknown:
        raise ValueError(
            f"re-executed tasks not in the problem: {sorted(map(str, unknown))}")
    subset = frozenset(t for t in chosen if problem.graph.weight(t) > 0)
    return next(solve_reexec_sets(problem, [subset], ctx)).result(problem, solver_name)


def solve_reexec_sets(problem: TriCritProblem, subsets: Sequence[frozenset[TaskId]],
                      context: SolverContext | None = None) -> Iterator[RestrictedSolve]:
    """The restricted solve of many subsets of positive-weight tasks,
    without building schedules: the library's one fixed-subset TRI-CRIT
    solve.

    A single-processor mapping water-fills each subset
    (:func:`_restricted_waterfill`).  Any other mapping hands the context's
    compiled :class:`~repro.continuous.convex.ConvexProgram` up to
    :data:`~repro.continuous.convex.STACK_ROWS` subsets per stack; no
    operation there mixes two rows, so a subset's speeds and energy are the
    same bits in any stack (its duality gap is ``metadata["convex_gap"]``).
    A subset with a speed floor above ``fmax`` is infeasible on either.
    Yields one :class:`RestrictedSolve` per subset, in order.
    """
    ctx = context if context is not None else SolverContext.for_problem(problem)
    if ctx.is_single_processor:
        for subset in subsets:
            speeds, message = _restricted_waterfill(problem, subset, ctx)
            yield _restricted(problem, subset, speeds, message, None)
        return
    tasks = ctx.convex_program.positive
    fmax = problem.platform.fmax
    w, floors, frel = ctx.restricted_columns
    for start in range(0, len(subsets), STACK_ROWS):
        chunk = subsets[start:start + STACK_ROWS]
        twice = np.array([[t in subset for t in tasks] for subset in chunk],
                         dtype=bool).reshape(len(chunk), len(tasks))
        weights = np.where(twice, 2.0 * w, w)
        fmin = np.where(twice, floors, frel)
        solvable = ~np.any(fmin > fmax * (1.0 + 1e-12), axis=1)
        stack = ctx.convex_program.solve(
            weights[solvable], fmin[solvable], np.full_like(fmin[solvable], fmax),
            problem.deadline, problem.platform.energy_model.exponent)
        speeds = weights[solvable] / stack.durations
        k = 0
        for subset, ok in zip(chunk, solvable.tolist()):
            if not ok:
                yield _restricted(problem, subset, None, _TOO_FAST, None)
                continue
            feasible = stack.status[k] in ("optimal", "feasible")
            yield _restricted(
                problem, subset,
                dict(zip(tasks, speeds[k].tolist())) if feasible else None,
                stack.messages[k], (stack.status[k], float(stack.gap[k])))
            k += 1


def reexec_energy(problem: TriCritProblem, speeds: TMapping[TaskId, float],
                  reexec: Container[TaskId]) -> float:
    """``reexec_schedule(problem, speeds, reexec).energy()``, bit for bit,
    without the schedule: the same terms, summed in the same order."""
    graph = problem.graph
    alpha = problem.platform.energy_model.exponent
    fmax = problem.platform.fmax

    def decision(t: TaskId) -> float:
        w = graph.weight(t)
        if w <= 0:
            return fmax ** alpha * 0.0
        f = speeds[t]
        energy = f ** alpha * (w / f)
        return energy + energy if t in reexec else energy

    return float(sum(decision(t) for t in graph.tasks()))


def reexec_schedule(problem: TriCritProblem, speeds: dict[TaskId, float],
                    reexec: Container[TaskId]) -> Schedule:
    """The schedule running each positive-weight task at ``speeds[t]``, twice
    for the tasks in ``reexec``; zero-weight tasks run once at ``fmax``."""
    graph = problem.graph
    decisions = {}
    for t in graph.tasks():
        w = graph.weight(t)
        if w <= 0:
            decisions[t] = TaskDecision.single(t, w, problem.platform.fmax)
            continue
        speed = speeds[t]
        if t in reexec:
            # ``speed`` is the speed of the effective task of weight 2w; both
            # actual executions run at that same speed.
            decisions[t] = TaskDecision.reexecuted(t, w, speed, speed)
        else:
            decisions[t] = TaskDecision.single(t, w, speed)
    return Schedule(problem.mapping, problem.platform, decisions)


def solve_tricrit_no_reexec(problem: TriCritProblem, *,
                            context: SolverContext | None = None) -> SolveResult:
    """Reliable baseline without any re-execution: every task at >= f_rel."""
    return solve_with_reexec_set(problem, (), solver_name="tricrit-no-reexec",
                                 context=context)


# ----------------------------------------------------------------------
# candidate scoring
# ----------------------------------------------------------------------
def _slacks(problem: TriCritProblem, schedule: Schedule) -> dict[TaskId, float]:
    """Scheduling slack of every task under the current durations."""
    augmented = problem.mapping.augmented_graph()
    durations = schedule.durations()
    earliest: dict[TaskId, float] = {}
    finish: dict[TaskId, float] = {}
    order = augmented.topological_order()
    for t in order:
        s = max((finish[p] for p in augmented.predecessors(t)), default=0.0)
        earliest[t] = s
        finish[t] = s + durations[t]
    latest_finish: dict[TaskId, float] = {}
    latest_start: dict[TaskId, float] = {}
    for t in reversed(order):
        succs = augmented.successors(t)
        lf = min((latest_start[s] for s in succs), default=problem.deadline)
        latest_finish[t] = lf
        latest_start[t] = lf - durations[t]
    return {t: latest_start[t] - earliest[t] for t in order}


def _energy_gain_estimate(problem: TriCritProblem, schedule: Schedule,
                          slacks: dict[TaskId, float], task: TaskId,
                          ctx: SolverContext) -> float:
    """Optimistic estimate of the energy saved by re-executing ``task``.

    Compares the current single-execution energy with the cheapest
    re-execution that fits in the task's current duration plus its slack.
    """
    graph = problem.graph
    platform = problem.platform
    w = graph.weight(task)
    if w <= 0:
        return -math.inf
    decision = schedule.decisions[task]
    current_energy = decision.energy(platform.energy_model.exponent)
    budget = decision.worst_case_duration + max(slacks.get(task, 0.0), 0.0)
    if budget <= 0:
        return -math.inf
    floor = ctx.reexecution_floor(task)
    speed = max(2.0 * w / budget, floor)
    if speed > platform.fmax * (1.0 + 1e-12):
        return -math.inf
    candidate_energy = 2.0 * w * speed ** (platform.energy_model.exponent - 1.0)
    return current_energy - candidate_energy


#: Relative tolerance (of the deadline) under which two slacks are one score.
_SLACK_TIE_TOL = 1e-9


def _rank_by_slack(tasks: list[TaskId], slacks: dict[TaskId, float],
                   index: dict[TaskId, int], deadline: float) -> list[TaskId]:
    """``tasks`` by decreasing slack, ties broken by topological ``index``.

    Slacks come out of a numerical solve, so tasks that are symmetric in
    the instance (every task of a single-processor chain, say) get slacks
    a few ulps apart in an order set by the solver's float noise.  Slacks
    within ``_SLACK_TIE_TOL * deadline`` of the run's largest count as
    equal and are ordered by ``index``, so the candidates do not depend on
    that noise.
    """
    tol = _SLACK_TIE_TOL * deadline
    by_slack = sorted(tasks, key=lambda t: slacks.get(t, 0.0), reverse=True)
    ranked: list[TaskId] = []
    run: list[TaskId] = []
    for t in by_slack:
        if run and slacks.get(run[0], 0.0) - slacks.get(t, 0.0) > tol:
            ranked.extend(sorted(run, key=index.__getitem__))
            run = []
        run.append(t)
    ranked.extend(sorted(run, key=index.__getitem__))
    return ranked


def greedy_round(problem: TriCritProblem, reexec: frozenset[TaskId],
                 candidates: Sequence[TaskId], energy: float,
                 ctx: SolverContext) -> RestrictedSolve | None:
    """One round of a greedy re-execution growth: ``reexec`` plus each
    candidate, solved as one :func:`solve_reexec_sets` call.

    Scanning in ``candidates`` order, a feasible row is kept when it beats
    the energy to beat -- ``energy`` at first, then the row last kept -- by
    more than 1e-12.  Returns the last row kept, or ``None``.
    """
    best: RestrictedSolve | None = None
    rows = solve_reexec_sets(problem, [reexec | {t} for t in candidates], ctx)
    for row in rows:
        if row.feasible and row.energy < (energy if best is None else best.energy) - 1e-12:
            best = row
    return best


def greedy_start(problem: TriCritProblem, ctx: SolverContext) -> frozenset[TaskId]:
    """The re-execution set a greedy growth starts from: none, or every
    positive-weight task when the single-execution floor ``max(frel, fmin)``,
    the same for every task, exceeds ``fmax`` -- then no task can run once
    (the pruned search's forced *In* rule)."""
    platform = problem.platform
    if max(ctx.reliability.frel, platform.fmin) > platform.fmax * (1.0 + 1e-12):
        return frozenset(ctx.positive_tasks)
    return frozenset()


def _greedy_growth(problem: TriCritProblem, *, score: str,
                   candidates_per_round: int, solver_name: str) -> SolveResult:
    ctx = SolverContext.for_problem(problem)
    reexec = greedy_start(problem, ctx)
    current = solve_with_reexec_set(problem, reexec, context=ctx)
    if not current.feasible:
        return SolveResult(schedule=None, energy=math.inf, status="infeasible",
                           solver=solver_name,
                           metadata={"message": "no reliable schedule " + (
                               "with every task re-executed" if reexec else "without re-execution")})
    positive = [t for t in problem.graph.tasks() if problem.graph.weight(t) > 0]
    topo_index = {t: k for k, t in enumerate(problem.graph.topological_order())}
    solves = 1
    rounds = 0
    while True:
        rounds += 1
        schedule = current.require_schedule()
        slacks = _slacks(problem, schedule)
        remaining = [t for t in positive if t not in reexec]
        if not remaining:
            break
        if score == "energy_gain":
            scored = sorted(
                remaining,
                key=lambda t: _energy_gain_estimate(problem, schedule, slacks, t, ctx),
                reverse=True,
            )
        elif score == "slack":
            scored = _rank_by_slack(remaining, slacks, topo_index,
                                    problem.deadline)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown score {score!r}")
        candidates = scored[:candidates_per_round]
        solves += len(candidates)
        best = greedy_round(problem, reexec, candidates, current.energy, ctx)
        if best is None:
            break
        current = best.result(problem, solver_name)
        reexec = best.reexec
    current.solver = solver_name
    current.metadata.update({"convex_solves": solves, "rounds": rounds,
                             "reexecuted": sorted(map(str, reexec))})
    return current


# ----------------------------------------------------------------------
# the two heuristic families + combiner
# ----------------------------------------------------------------------
def heuristic_energy_gain(problem: TriCritProblem, *,
                          candidates_per_round: int = 3) -> SolveResult:
    """Chain-style heuristic: grow the re-execution set by estimated energy gain."""
    return _greedy_growth(problem, score="energy_gain",
                          candidates_per_round=candidates_per_round,
                          solver_name="tricrit-heuristic-energy-gain")


def heuristic_parallel_slack(problem: TriCritProblem, *,
                             candidates_per_round: int = 3) -> SolveResult:
    """Fork-style heuristic: prefer highly parallelisable (large-slack) tasks."""
    return _greedy_growth(problem, score="slack",
                          candidates_per_round=candidates_per_round,
                          solver_name="tricrit-heuristic-parallel-slack")


def best_of_heuristics(problem: TriCritProblem, *,
                       candidates_per_round: int = 3) -> SolveResult:
    """Take the best of the two families (the paper's recommended combination).

    Raises :class:`~repro.core.problems.InfeasibleProblemError` when neither
    family finds any reliable schedule: both families start from
    :func:`greedy_start` -- no re-execution, or every task re-executed when
    a single execution's floor exceeds ``fmax`` and no other set can be
    reliable -- and from there re-execution only adds work at ``fmax``, so
    an infeasible start means an infeasible instance, and callers must see
    that -- not a silent infinite-energy record.
    """
    a = heuristic_energy_gain(problem, candidates_per_round=candidates_per_round)
    b = heuristic_parallel_slack(problem, candidates_per_round=candidates_per_round)
    if not a.feasible and not b.feasible:
        raise InfeasibleProblemError(
            "no reliable schedule exists: the reliability floors do not fit "
            f"the deadline {problem.deadline:.6g} even without re-execution")
    best = a if a.energy <= b.energy else b
    other = b if best is a else a
    result = SolveResult(schedule=best.schedule, energy=best.energy, status=best.status,
                         solver="tricrit-heuristic-best-of",
                         metadata={
                             "winner": best.solver,
                             "energy_gain_heuristic": a.energy,
                             "parallel_slack_heuristic": b.energy,
                             "reexecuted": best.metadata.get("reexecuted", []),
                         })
    return result


#: Registry used by the heuristic-comparison experiment (E9).
TRICRIT_HEURISTICS = {
    "no_reexec": solve_tricrit_no_reexec,
    "energy_gain": heuristic_energy_gain,
    "parallel_slack": heuristic_parallel_slack,
    "best_of": best_of_heuristics,
}

"""TRI-CRIT CONTINUOUS on a linear chain (single processor).

Section III of the paper: the TRI-CRIT problem is NP-hard "even in the
simple case when there is only one processor and a set of tasks mapped on
this processor (linear chain)".  Nevertheless the paper reports an optimal
*strategy* for that case: "first slow the execution of all tasks equally,
then choose the tasks to be re-executed".  Once the re-executed set is
fixed, what is left is the bounded water-filling that
:func:`repro.continuous.heuristics.solve_reexec_sets` runs on one
processor: a re-executed
task behaves like a task of effective weight ``2 w_i`` whose speed floor is
the slowest speed at which two executions still meet the reliability
threshold (both executions at the same speed, which is optimal by symmetry
and convexity); a single-execution task has speed floor ``f_rel``.  This
module chooses the set:

* :func:`solve_tricrit_chain_exact` -- every re-execution subset, in the
  processor's task order, through the vectorized subset kernel
  :func:`repro.solvers.batch.chain_subset_minimum` that ``solve_batch`` and
  the server run too, so every entry point returns the same bits
  (exponential, used as ground truth on small chains; its cost is itself
  part of the NP-hardness experiment E7).
* :func:`solve_tricrit_chain_greedy` -- the paper's strategy: start from no
  re-executions (everything slowed equally down to ``f_rel``), then greedily
  add the re-execution that saves the most energy while the deadline and
  reliability constraints stay satisfied; each round is one
  :func:`repro.continuous.heuristics.greedy_round`, the heuristics' round.

:func:`reexecution_speed_floor` is the one formula for that re-execution
floor; :meth:`repro.solvers.context.SolverContext.reexecution_floor`
memoizes it per task.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.problems import SolveResult, TriCritProblem
from ..core.reliability import ReliabilityModel
from ..dag.taskgraph import TaskId
from ..solvers.batch import chain_subset_minimum
from ..solvers.context import SolverContext
from ..solvers.limits import CHAIN_EXACT_MAX_TASKS
from .heuristics import greedy_round, greedy_start, reexec_schedule, solve_with_reexec_set

__all__ = [
    "solve_tricrit_chain_exact",
    "solve_tricrit_chain_greedy",
    "reexecution_speed_floor",
]


def reexecution_speed_floor(model: ReliabilityModel, weight: float, fmin: float) -> float:
    """Slowest admissible speed for a task executed twice at equal speeds."""
    return max(fmin, model.min_equal_reexecution_speed(weight))


def _chain_tasks(problem: TriCritProblem) -> tuple[SolverContext, list[TaskId]]:
    """The context and the positive-weight tasks in processor order."""
    ctx = SolverContext.for_problem(problem)
    if not ctx.is_single_processor:
        raise ValueError("the chain solvers require a single-processor mapping")
    graph = problem.graph
    return ctx, [t for t in problem.mapping.tasks_on(0) if graph.weight(t) > 0]


def solve_tricrit_chain_exact(problem: TriCritProblem, *,
                              max_tasks: int = CHAIN_EXACT_MAX_TASKS) -> SolveResult:
    """Exhaustive optimum over all re-execution subsets of a chain.

    The enumeration is exponential in the number of tasks (the problem is
    NP-hard); ``max_tasks`` guards against accidental huge runs.  The
    metadata records the number of subsets evaluated, which experiment E7
    uses to exhibit the exponential growth.
    """
    ctx, positive_ids = _chain_tasks(problem)
    # Count positive-weight tasks only, like the descriptor admissibility
    # check and every other enumerative guard: zero-weight tasks never enter
    # the subset enumeration, so they must not count against its limit.
    if len(positive_ids) > max_tasks:
        raise ValueError(
            f"exact chain solver limited to {max_tasks} tasks "
            f"(got {len(positive_ids)}); the subset enumeration is exponential"
        )
    platform = problem.platform
    model = ctx.reliability
    energy, speeds, reexecuted = chain_subset_minimum(
        np.array([[problem.graph.weight(t) for t in positive_ids]]),
        *(np.array([x]) for x in (problem.deadline, platform.fmin,
                                  platform.fmax,
                                  platform.energy_model.exponent)),
        [np.array([x]) for x in (model.fmin, model.fmax, model.lambda0,
                                 model.sensitivity, model.frel)])
    evaluated = 2 ** len(positive_ids)
    if not np.isfinite(energy[0]):
        return SolveResult(schedule=None, energy=math.inf, status="infeasible",
                           solver="tricrit-chain-exact",
                           metadata={"subsets_evaluated": evaluated})
    chosen = {t for t, r in zip(positive_ids, reexecuted[0]) if r}
    schedule = reexec_schedule(
        problem, dict(zip(positive_ids, speeds[0].tolist())), chosen)
    return SolveResult(schedule=schedule, energy=float(energy[0]),
                       status="optimal", solver="tricrit-chain-exact",
                       metadata={"reexecuted": sorted(map(str, chosen)),
                                 "subsets_evaluated": evaluated})


def solve_tricrit_chain_greedy(problem: TriCritProblem) -> SolveResult:
    """The paper's chain strategy: slow everything equally, then add re-executions.

    Starting from the no-re-execution solution (all tasks at the common
    speed, floored at ``f_rel``), or from every task re-executed when
    ``f_rel`` exceeds ``fmax`` (:func:`~repro.continuous.heuristics.greedy_start`),
    the heuristic repeatedly evaluates adding each not-yet-re-executed task
    to the re-execution set, keeps the single best improvement, and stops
    when no addition lowers the energy.
    """
    ctx, positive_ids = _chain_tasks(problem)
    current_set = greedy_start(problem, ctx)
    current = solve_with_reexec_set(problem, current_set, context=ctx)
    evaluated = 1
    while True:
        candidates = [t for t in positive_ids if t not in current_set]
        evaluated += len(candidates)
        best = greedy_round(problem, current_set, candidates, current.energy, ctx)
        if best is None:
            break
        current = best.result(problem, "tricrit-chain-greedy")
        current_set = best.reexec
    current.solver = "tricrit-chain-greedy"
    if current.feasible:
        current.status = "optimal"
    current.metadata["subsets_evaluated"] = evaluated
    return current

"""TRI-CRIT CONTINUOUS on a fork: the paper's polynomial-time algorithm.

Section III: "We were also able to find a polynomial time algorithm to solve
the problem for a fork. [...] those highly parallelizable tasks should be
preferred when allocating time slots for re-execution or deceleration."

On a fork the structure of any schedule is simple: the source ``T_0``
executes first (once or twice) and finishes at some time ``t_0``; all the
children then run concurrently, each on its own processor, within the
remaining budget ``D - t_0``.  Given its time budget ``B`` a task is solved
independently and optimally in O(1):

* single execution: speed ``max(w/B, f_rel)`` (feasible when ``<= fmax``),
  energy ``w f^(alpha-1)``;
* re-execution: both attempts at speed ``max(2w/B, floor)`` where ``floor``
  is the slowest equal speed meeting the reliability constraint twice,
  energy ``2 w f^(alpha-1)``;
* the task picks the cheaper feasible option.

The per-task energy as a function of the budget is piecewise smooth with a
constant number of breakpoints: the speed-clamping kinks and the
single/re-execution crossover ``B = 2^(alpha/(alpha-1)) w / f_rel``.  So the
total energy as a function of ``t_0`` has O(n) breakpoints, and between two
of them every task keeps its option and clamp:
``E(t_0) = A t_0^-(alpha-1) + C (D - t_0)^-(alpha-1) + K``, minimised in
closed form.  :func:`solve_tricrit_fork` evaluates every breakpoint and every
interval minimiser, a polynomial-time exact algorithm with no numerical
search.  :func:`solve_tricrit_fork_bruteforce` enumerates all ``2^(n+1)``
re-execution configurations with a bounded scalar search each, as an
independent ground truth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from ..core.problems import SolveResult, TriCritProblem
from ..core.reliability import ReliabilityModel
from ..core.schedule import Schedule, TaskDecision
from ..dag.taskgraph import TaskId
from ..solvers.context import SolverContext
from ..solvers.limits import FORK_BRUTEFORCE_MAX_TASKS
from .tricrit_chain import reexecution_speed_floor

__all__ = [
    "TaskBudgetChoice",
    "best_choice_for_budget",
    "solve_tricrit_fork",
    "solve_tricrit_fork_bruteforce",
]


@dataclass(frozen=True)
class TaskBudgetChoice:
    """Optimal decision of one task given a time budget."""

    reexecute: bool
    speed: float
    energy: float
    duration: float
    feasible: bool


def _single_choice(weight: float, budget: float, frel: float, fmax: float,
                   exponent: float) -> TaskBudgetChoice:
    if weight <= 0:
        return TaskBudgetChoice(False, fmax, 0.0, 0.0, True)
    if budget <= 0:
        return TaskBudgetChoice(False, fmax, math.inf, math.inf, False)
    speed = max(weight / budget, frel)
    if speed > fmax * (1.0 + 1e-12):
        return TaskBudgetChoice(False, fmax, math.inf, math.inf, False)
    energy = weight * speed ** (exponent - 1.0)
    return TaskBudgetChoice(False, speed, energy, weight / speed, True)


def _reexec_choice(weight: float, budget: float, floor: float, fmax: float,
                   exponent: float) -> TaskBudgetChoice:
    if weight <= 0:
        return TaskBudgetChoice(False, fmax, 0.0, 0.0, True)
    if budget <= 0:
        return TaskBudgetChoice(True, fmax, math.inf, math.inf, False)
    speed = max(2.0 * weight / budget, floor)
    if speed > fmax * (1.0 + 1e-12):
        return TaskBudgetChoice(True, fmax, math.inf, math.inf, False)
    energy = 2.0 * weight * speed ** (exponent - 1.0)
    return TaskBudgetChoice(True, speed, energy, 2.0 * weight / speed, True)


def best_choice_for_budget(weight: float, budget: float, *, model: ReliabilityModel,
                           fmin: float, fmax: float,
                           exponent: float = 3.0,
                           force: bool | None = None) -> TaskBudgetChoice:
    """Cheapest feasible decision (single vs re-executed) for one task.

    ``force`` pins the decision (used by the brute-force reference): ``True``
    forces re-execution, ``False`` forces a single execution, ``None`` lets
    the task choose.
    """
    return _choose(weight, budget, frel=max(model.frel, fmin),
                   floor=reexecution_speed_floor(model, weight, fmin),
                   fmax=fmax, exponent=exponent, force=force)


def _choose(weight: float, budget: float, *, frel: float, floor: float,
            fmax: float, exponent: float,
            force: bool | None) -> TaskBudgetChoice:
    single = _single_choice(weight, budget, frel, fmax, exponent)
    reexec = _reexec_choice(weight, budget, floor, fmax, exponent)
    if force is True:
        return reexec
    if force is False:
        return single
    if not single.feasible:
        return reexec
    if not reexec.feasible:
        return single
    return reexec if reexec.energy < single.energy else single


@dataclass(frozen=True)
class _Fork:
    """A fork instance with its per-task data read once per solve.

    The re-execution floors come from the memoized
    :meth:`~repro.solvers.context.SolverContext.reexecution_floor`, so the
    energy evaluations over the source finish time never recompute them.
    """

    problem: TriCritProblem
    source: TaskId
    children: list[TaskId]
    weight: dict[TaskId, float]
    floor: dict[TaskId, float]
    frel: float

    def choice(self, task: TaskId, budget: float,
               force: bool | None = None) -> TaskBudgetChoice:
        platform = self.problem.platform
        return _choose(self.weight[task], budget, frel=self.frel,
                       floor=self.floor[task], fmax=platform.fmax,
                       exponent=platform.energy_model.exponent, force=force)


def _fork_instance(problem: TriCritProblem) -> _Fork:
    is_fork, source = problem.graph.is_fork()
    if not is_fork:
        raise ValueError("the fork solvers require a fork task graph")
    if any(len(tasks) > 1 for tasks in problem.mapping.as_lists()):
        raise ValueError("the fork solvers require one task per processor")
    ctx = SolverContext.for_problem(problem)
    tasks = problem.graph.tasks()
    return _Fork(problem=problem, source=source,
                 children=[t for t in tasks if t != source],
                 weight={t: problem.graph.weight(t) for t in tasks},
                 floor={t: ctx.reexecution_floor(t) for t in tasks},
                 frel=max(ctx.reliability.frel, problem.platform.fmin))


def _total_energy(fork: _Fork, t0: float, *,
                  force: dict[TaskId, bool] | None = None) -> tuple[float, dict[TaskId, TaskBudgetChoice]]:
    choices: dict[TaskId, TaskBudgetChoice] = {}
    total = 0.0
    src_choice = fork.choice(fork.source, t0,
                             None if force is None else force.get(fork.source))
    choices[fork.source] = src_choice
    if not src_choice.feasible:
        return math.inf, choices
    total += src_choice.energy
    remaining = fork.problem.deadline - t0
    for child in fork.children:
        choice = fork.choice(child, remaining,
                             None if force is None else force.get(child))
        choices[child] = choice
        if not choice.feasible:
            return math.inf, choices
        total += choice.energy
    return total, choices


def _choices_to_result(problem: TriCritProblem, t0: float,
                       choices: dict[TaskId, TaskBudgetChoice],
                       solver: str, extra: dict | None = None) -> SolveResult:
    graph = problem.graph
    decisions = {}
    for t in graph.tasks():
        w = graph.weight(t)
        choice = choices[t]
        if w <= 0:
            decisions[t] = TaskDecision.single(t, w, problem.platform.fmax)
        elif choice.reexecute:
            decisions[t] = TaskDecision.reexecuted(t, w, choice.speed, choice.speed)
        else:
            decisions[t] = TaskDecision.single(t, w, choice.speed)
    schedule = Schedule(problem.mapping, problem.platform, decisions)
    metadata = {
        "source_finish_time": t0,
        "reexecuted": sorted(str(t) for t, c in choices.items() if c.reexecute and graph.weight(t) > 0),
    }
    if extra:
        metadata.update(extra)
    return SolveResult(schedule=schedule, energy=schedule.energy(), status="optimal",
                       solver=solver, metadata=metadata)


def _breakpoints(fork: _Fork) -> list[float]:
    platform = fork.problem.platform
    D = fork.problem.deadline
    frel = fork.frel
    alpha = platform.energy_model.exponent
    points: set[float] = set()

    def task_breakpoints(task: TaskId) -> list[float]:
        weight = fork.weight[task]
        if weight <= 0:
            return []
        return [
            weight / platform.fmax,
            2.0 * weight / platform.fmax,
            weight / frel,
            2.0 * weight / fork.floor[task],
            # single at frel costs as much as a re-execution at 2w/B
            2.0 ** (alpha / (alpha - 1.0)) * weight / frel,
        ]

    for b in task_breakpoints(fork.source):
        points.add(b)
    for child in fork.children:
        for b in task_breakpoints(child):
            points.add(D - b)
    return sorted(points)


def _interval_minimiser(fork: _Fork, left: float, right: float) -> float | None:
    """Exact minimiser of the total energy over one breakpoint interval.

    Inside ``[left, right]`` every task keeps its option and speed clamp, so
    ``E(t0) = A t0^-(alpha-1) + C (D - t0)^-(alpha-1) + K``, where ``A``
    (``C``) sums ``(k w)^alpha`` over the unclamped source (children) terms,
    ``k = 2`` for a re-execution.  The minimiser is
    ``D A^(1/alpha) / (A^(1/alpha) + C^(1/alpha))``, clipped to the
    interval.  Returns ``None`` when the interval is infeasible.
    """
    energy, choices = _total_energy(fork, 0.5 * (left + right))
    if not math.isfinite(energy):
        return None
    alpha = fork.problem.platform.energy_model.exponent

    def unclamped(task: TaskId) -> float:
        choice = choices[task]
        k, clamp = (2.0, fork.floor[task]) if choice.reexecute else (1.0, fork.frel)
        return (k * fork.weight[task]) ** alpha if choice.speed > clamp else 0.0

    a = unclamped(fork.source) ** (1.0 / alpha)
    c = sum(unclamped(child) for child in fork.children) ** (1.0 / alpha)
    if a <= 0.0:  # no unclamped source term: E is non-decreasing in t0
        return left
    if c <= 0.0:  # no unclamped child: E is non-increasing in t0
        return right
    return min(max(fork.problem.deadline * a / (a + c), left), right)


def solve_tricrit_fork(problem: TriCritProblem) -> SolveResult:
    """Polynomial-time TRI-CRIT solver for forks (exact breakpoint scan)."""
    fork = _fork_instance(problem)
    platform = problem.platform
    D = problem.deadline

    w0 = fork.weight[fork.source]
    max_child_min = max(
        (fork.weight[c] / platform.fmax for c in fork.children if fork.weight[c] > 0),
        default=0.0,
    )
    t0_min = w0 / platform.fmax if w0 > 0 else 0.0
    t0_max = D - max_child_min
    if t0_min > t0_max * (1.0 + 1e-12) or (w0 > 0 and t0_min > D):
        return SolveResult(schedule=None, energy=math.inf, status="infeasible",
                           solver="tricrit-fork-poly",
                           metadata={"message": "deadline too tight even at fmax"})
    if w0 <= 0 and not fork.children:
        return SolveResult(schedule=None, energy=math.inf, status="infeasible",
                           solver="tricrit-fork-poly", metadata={"message": "empty fork"})

    breakpoints = sorted({t0_min, t0_max,
                          *(b for b in _breakpoints(fork) if t0_min <= b <= t0_max)})
    candidates = set(breakpoints)
    for left, right in zip(breakpoints[:-1], breakpoints[1:]):
        t0 = _interval_minimiser(fork, left, right)
        if t0 is not None:
            candidates.add(t0)

    best_t0 = None
    best_energy = math.inf
    for t0 in sorted(candidates):
        e = _total_energy(fork, t0)[0]
        if e < best_energy:
            best_energy, best_t0 = e, t0
    if best_t0 is None:
        return SolveResult(schedule=None, energy=math.inf, status="infeasible",
                           solver="tricrit-fork-poly",
                           metadata={"message": "no feasible source finish time"})
    _, choices = _total_energy(fork, best_t0)
    return _choices_to_result(problem, best_t0, choices, "tricrit-fork-poly",
                              {"intervals": len(breakpoints) - 1})


def solve_tricrit_fork_bruteforce(problem: TriCritProblem, *,
                                  max_tasks: int = FORK_BRUTEFORCE_MAX_TASKS) -> SolveResult:
    """Exhaustive reference: enumerate every re-execution configuration.

    For each of the ``2^(n+1)`` configurations the energy is a convex
    function of the source finish time ``t_0`` and is minimised with a
    bounded scalar search.  Exponential -- only for small forks / tests.
    """
    # Imported here: scipy.optimize is the reference's only use, and a
    # module-level import would load it for every fork solve.
    from scipy import optimize as sciopt

    fork = _fork_instance(problem)
    platform = problem.platform
    source = fork.source
    tasks = [source] + fork.children
    if len(tasks) > max_tasks:
        raise ValueError(
            f"brute force limited to {max_tasks} tasks (got {len(tasks)})"
        )
    positive_tasks = [t for t in tasks if fork.weight[t] > 0]

    w0 = fork.weight[source]
    max_child_min = max(
        (fork.weight[c] / platform.fmax for c in fork.children if fork.weight[c] > 0),
        default=0.0,
    )
    t0_min = w0 / platform.fmax if w0 > 0 else 0.0
    t0_max = problem.deadline - max_child_min

    best_energy = math.inf
    best = None
    configs = 0
    for reexec_tuple in itertools.product([False, True], repeat=len(positive_tasks)):
        force = dict(zip(positive_tasks, reexec_tuple))
        configs += 1
        lo = 2.0 * w0 / platform.fmax if (w0 > 0 and force.get(source)) else t0_min
        hi = t0_max
        if lo > hi:
            continue

        def energy_at(t0: float, force: dict[TaskId, bool] = force) -> float:
            value = _total_energy(fork, t0, force=force)[0]
            return value if math.isfinite(value) else 1e300

        if hi - lo <= 1e-12:
            t_best, e_best = lo, energy_at(lo)
        else:
            res = sciopt.minimize_scalar(energy_at, bounds=(lo, hi), method="bounded",
                                         options={"xatol": 1e-8})
            t_best, e_best = float(res.x), float(res.fun)
            for endpoint in (lo, hi):
                e = energy_at(endpoint)
                if e < e_best:
                    t_best, e_best = endpoint, e
        if e_best < best_energy:
            best_energy = e_best
            best = (t_best, force)

    if best is None or not math.isfinite(best_energy) or best_energy >= 1e299:
        return SolveResult(schedule=None, energy=math.inf, status="infeasible",
                           solver="tricrit-fork-bruteforce",
                           metadata={"configurations": configs})
    t0, force = best
    _, choices = _total_energy(fork, t0, force=force)
    return _choices_to_result(problem, t0, choices, "tricrit-fork-bruteforce",
                              {"configurations": configs})

"""Experiments E4-E6: the discrete speed models.

* E4 (VDD-HOPPING LP): the LP optimum is sandwiched between the CONTINUOUS
  lower bound and the best single-mode (DISCRETE) schedule, and its
  solutions use at most two consecutive speeds per task.
* E5 (NP-completeness of DISCRETE/INCREMENTAL): the executable 2-PARTITION
  reduction answers 2-PARTITION correctly through the exact scheduling
  solver, and the search effort of the exact solvers grows exponentially
  with the instance size while the VDD LP grows polynomially.
* E6 (INCREMENTAL approximation): the measured energy ratio of the
  approximation algorithm against the continuous lower bound stays within
  the guaranteed factor ``(1 + delta/fmin)^2 (1 + 1/K)^2`` across sweeps of
  ``delta`` and ``K``.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from ..complexity.reductions import verify_partition_reduction
from ..complexity.scaling import (
    fit_growth_exponent,
    measure_discrete_exact_scaling,
    measure_vdd_lp_scaling,
)
from ..core.problems import BiCritProblem
from ..core.rng import resolve_seed
from ..core.speeds import DiscreteSpeeds, IncrementalSpeeds, VddHoppingSpeeds
from ..dag import generators
from ..discrete.incremental_approx import approximation_bound
from ..discrete.vdd_lp import two_speed_structure
from ..platform.mapping import Mapping
from ..platform.platform import Platform
from ..solvers import solve

__all__ = [
    "run_vdd_lp_experiment",
    "run_np_hardness_experiment",
    "run_incremental_approx_experiment",
]


def _chain_problem(n: int, seed: int, speed_model, slack: float) -> BiCritProblem:
    graph = generators.random_chain(n, seed=seed)
    mapping = Mapping.single_processor(graph)
    platform = Platform(1, speed_model)
    deadline = slack * graph.total_weight() / platform.fmax
    return BiCritProblem(mapping=mapping, platform=platform, deadline=deadline)


def _layered_problem(layers: int, width: int, p: int, seed: int, speed_model,
                     slack: float) -> BiCritProblem:
    from ..platform.list_scheduling import critical_path_mapping

    graph = generators.random_layered_dag(layers, width, seed=seed)
    platform = Platform(p, speed_model)
    mapping = critical_path_mapping(graph, p, fmax=platform.fmax).mapping
    schedule_at_fmax = mapping.augmented_graph()
    finish: dict = {}
    for t in schedule_at_fmax.topological_order():
        s = max((finish[q] for q in schedule_at_fmax.predecessors(t)), default=0.0)
        finish[t] = s + graph.weight(t) / platform.fmax
    deadline = slack * max(finish.values(), default=0.0)
    return BiCritProblem(mapping=mapping, platform=platform, deadline=deadline)


def run_vdd_lp_experiment(*, modes: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
                          chain_sizes: Sequence[int] = (5, 10, 20),
                          slack: float = 1.7,
                          seed: int | np.random.Generator | None = 17,
                          include_dag: bool = True) -> list[dict]:
    """E4: LP optimum vs continuous bound vs single-mode optimum, two-speed check.

    ``seed`` accepts an int, a generator or ``None`` (default seed 17).
    """
    seed = resolve_seed(seed, 17)
    rows = []
    instances: list[tuple[str, BiCritProblem]] = []
    for i, n in enumerate(chain_sizes):
        instances.append((f"chain-{n}",
                          _chain_problem(n, seed + i, VddHoppingSpeeds(modes), slack)))
    if include_dag:
        instances.append(("layered-4x3",
                          _layered_problem(4, 3, 3, seed + 50, VddHoppingSpeeds(modes), slack)))

    for name, problem in instances:
        vdd = solve(problem, solver="bicrit-vdd-lp")
        structure = two_speed_structure(vdd.require_schedule())
        continuous = solve(BiCritProblem(
            mapping=problem.mapping,
            platform=problem.platform.continuous_twin(),
            deadline=problem.deadline,
        ))
        discrete_problem = BiCritProblem(
            mapping=problem.mapping,
            platform=problem.platform.with_speed_model(DiscreteSpeeds(modes)),
            deadline=problem.deadline,
        )
        discrete = solve(discrete_problem, solver="bicrit-discrete-milp")
        rows.append({
            "instance": name,
            "tasks": problem.graph.num_tasks,
            "continuous_energy": continuous.energy,
            "vdd_lp_energy": vdd.energy,
            "discrete_energy": discrete.energy,
            "vdd_over_continuous": vdd.energy / continuous.energy,
            "discrete_over_vdd": discrete.energy / vdd.energy,
            "max_speeds_per_task": structure.max_speeds_per_task,
            "consecutive_pairs": structure.all_pairs_consecutive,
        })
    return rows


def run_np_hardness_experiment(*, partition_instances: Sequence[Sequence[int]] = (
                                   (3, 1, 1, 2, 2, 1),
                                   (5, 5, 4, 3, 2, 1),
                                   (7, 3, 2, 2, 1, 1),
                                   (8, 6, 5, 4),
                                   (9, 7, 5, 3, 1),
                               ),
                               scaling_sizes: Sequence[int] = (4, 6, 8, 10),
                               lp_sizes: Sequence[int] = (4, 8, 16, 32, 64),
                               scaling_modes: Sequence[float] = (0.5, 1.0),
                               seed: int | np.random.Generator | None = 23) -> dict:
    """E5: reduction correctness plus exponential-vs-polynomial scaling.

    The exact-solver scaling probe uses a two-mode speed set so that the
    ``m^n`` enumeration stays affordable while the exponential growth in the
    number of tasks remains clearly visible.  ``seed`` accepts an int, a
    generator or ``None`` (default seed 23).
    """
    seed = resolve_seed(seed, 23)
    reduction_rows = []
    for integers in partition_instances:
        outcome = verify_partition_reduction(integers, solver="bruteforce")
        outcome["instance"] = "+".join(str(a) for a in integers)
        reduction_rows.append(outcome)

    exact_points = measure_discrete_exact_scaling(scaling_sizes, seed=seed,
                                                  modes=scaling_modes)
    lp_points = measure_vdd_lp_scaling(lp_sizes, seed=seed)
    exact_fit = fit_growth_exponent(exact_points, field="work_units")
    lp_fit = fit_growth_exponent(lp_points, field="work_units")
    return {
        "reduction_rows": reduction_rows,
        "exact_scaling": [
            {"tasks": p.num_tasks, "assignments": p.work_units, "seconds": p.seconds}
            for p in exact_points
        ],
        "lp_scaling": [
            {"tasks": p.num_tasks, "lp_variables": p.work_units, "seconds": p.seconds}
            for p in lp_points
        ],
        "exact_fit": exact_fit,
        "lp_fit": lp_fit,
    }


def run_incremental_approx_experiment(*, deltas: Sequence[float] = (0.05, 0.1, 0.2, 0.3),
                                      Ks: Sequence[int | None] = (None, 2, 5),
                                      chain_size: int = 10, slack: float = 1.6,
                                      seed: int | np.random.Generator | None = 29,
                                      speed_range: tuple[float, float] = (0.3, 1.0),
                                      include_dag: bool = True) -> list[dict]:
    """E6: measured approximation ratio vs the guaranteed factor.

    ``seed`` accepts an int, a generator or ``None`` (default seed 29).
    """
    seed = resolve_seed(seed, 29)
    fmin, fmax = speed_range
    rows = []
    instances = [("chain", _chain_problem(chain_size, seed,
                                          IncrementalSpeeds(fmin, fmax, deltas[0]), slack))]
    if include_dag:
        instances.append(("layered-4x3",
                          _layered_problem(4, 3, 3, seed + 5,
                                           IncrementalSpeeds(fmin, fmax, deltas[0]), slack)))
    for name, base_problem in instances:
        continuous = solve(BiCritProblem(
            mapping=base_problem.mapping,
            platform=base_problem.platform.continuous_twin(),
            deadline=base_problem.deadline,
        ))
        for delta, K in itertools.product(deltas, Ks):
            speed_model = IncrementalSpeeds(fmin, fmax, delta)
            problem = BiCritProblem(
                mapping=base_problem.mapping,
                platform=base_problem.platform.with_speed_model(speed_model),
                deadline=base_problem.deadline,
            )
            approx = solve(problem, solver="bicrit-incremental-approx", K=K)
            bound = approximation_bound(speed_model, K=K)
            ratio = approx.energy / continuous.energy
            rows.append({
                "instance": name,
                "delta": delta,
                "K": "exact" if K is None else K,
                "continuous_energy": continuous.energy,
                "approx_energy": approx.energy,
                "measured_ratio": ratio,
                "guaranteed_factor": bound,
                "within_bound": ratio <= bound * (1.0 + 1e-6),
            })
    return rows

"""Exponential-vs-polynomial scaling probes (experiment E5 support).

The paper's complexity landscape is: BI-CRIT is polynomial under
VDD-HOPPING (a linear program) but NP-complete under DISCRETE /
INCREMENTAL; TRI-CRIT is NP-complete even under VDD-HOPPING and NP-hard on
a single-processor chain under CONTINUOUS.  These helpers measure observable
proxies of that landscape on families of growing instances:

* the size (variables/constraints) and solve time of the VDD-HOPPING LP
  grows polynomially with the number of tasks;
* the number of mode assignments / re-execution subsets enumerated by the
  exact DISCRETE and TRI-CRIT solvers grows exponentially.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np

from ..core.problems import BiCritProblem, TriCritProblem
from ..core.reliability import ReliabilityModel
from ..core.speeds import ContinuousSpeeds, DiscreteSpeeds, VddHoppingSpeeds
from ..dag.generators import random_chain
from ..platform.mapping import Mapping
from ..platform.platform import Platform

__all__ = [
    "ScalingPoint",
    "measure_vdd_lp_scaling",
    "measure_discrete_exact_scaling",
    "measure_tricrit_chain_scaling",
    "fit_growth_exponent",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One measurement of a scaling sweep."""

    num_tasks: int
    seconds: float
    work_units: float  # LP variables, assignments or subsets, depending on probe
    energy: float


def _chain_problem(n: int, seed: int, speed_model, *, slack: float = 1.6,
                   reliability: ReliabilityModel | None = None):
    graph = random_chain(n, seed=seed)
    mapping = Mapping.single_processor(graph)
    platform = Platform(1, speed_model, reliability_model=reliability)
    deadline = slack * graph.total_weight() / platform.fmax
    return graph, mapping, platform, deadline


def measure_vdd_lp_scaling(sizes: Sequence[int], *, seed: int = 0,
                           modes: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0)
                           ) -> list[ScalingPoint]:
    """LP size and solve time of BI-CRIT VDD-HOPPING on growing chains."""
    # repro: allow[REP004] -- scaling study times the raw algorithm;
    # dispatch overhead and size caps would distort the measurement
    from ..discrete.vdd_lp import solve_bicrit_vdd_lp

    points = []
    for i, n in enumerate(sizes):
        _, mapping, platform, deadline = _chain_problem(
            n, seed + i, VddHoppingSpeeds(modes)
        )
        problem = BiCritProblem(mapping=mapping, platform=platform, deadline=deadline)
        start = time.perf_counter()
        result = solve_bicrit_vdd_lp(problem)
        elapsed = time.perf_counter() - start
        points.append(ScalingPoint(num_tasks=n, seconds=elapsed,
                                   work_units=float(result.metadata["num_variables"]),
                                   energy=result.energy))
    return points


def measure_discrete_exact_scaling(sizes: Sequence[int], *, seed: int = 0,
                                   modes: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0)
                                   ) -> list[ScalingPoint]:
    """Mode assignments the exact DISCRETE enumeration visits on growing chains."""
    # repro: allow[REP004] -- scaling study times the raw algorithm;
    # dispatch overhead and size caps would distort the measurement
    from ..discrete.exact import solve_bicrit_discrete_bruteforce

    points = []
    for i, n in enumerate(sizes):
        _, mapping, platform, deadline = _chain_problem(
            n, seed + i, DiscreteSpeeds(modes)
        )
        problem = BiCritProblem(mapping=mapping, platform=platform, deadline=deadline)
        start = time.perf_counter()
        result = solve_bicrit_discrete_bruteforce(problem)
        elapsed = time.perf_counter() - start
        points.append(ScalingPoint(
            num_tasks=n, seconds=elapsed,
            work_units=float(result.metadata.get("assignments_evaluated", 0)),
            energy=result.energy,
        ))
    return points


def measure_tricrit_chain_scaling(sizes: Sequence[int], *, seed: int = 0,
                                  slack: float = 2.5) -> list[ScalingPoint]:
    """Subsets explored by the exact TRI-CRIT chain solver on growing chains."""
    # repro: allow[REP004] -- scaling study times the raw algorithm;
    # dispatch overhead and size caps would distort the measurement
    from ..continuous.tricrit_chain import solve_tricrit_chain_exact

    points = []
    for i, n in enumerate(sizes):
        reliability = ReliabilityModel(fmin=0.1, fmax=1.0)
        _, mapping, platform, deadline = _chain_problem(
            n, seed + i, ContinuousSpeeds(0.1, 1.0), slack=slack,
            reliability=reliability,
        )
        problem = TriCritProblem(mapping=mapping, platform=platform,
                                 deadline=deadline)
        start = time.perf_counter()
        result = solve_tricrit_chain_exact(problem)
        elapsed = time.perf_counter() - start
        points.append(ScalingPoint(
            num_tasks=n, seconds=elapsed,
            work_units=float(result.metadata.get("subsets_evaluated", 0)),
            energy=result.energy,
        ))
    return points


def fit_growth_exponent(points: Sequence[ScalingPoint], *,
                        field: str = "work_units") -> dict[str, float]:
    """Fit both polynomial (log-log) and exponential (log-linear) growth models.

    Returns the least-squares slope and residual of each model so the
    experiment report can state which one explains the measurements better
    (the polynomial fit wins for the LP probe, the exponential fit for the
    exact solvers).
    """
    sizes = np.array([p.num_tasks for p in points], dtype=float)
    values = np.array([getattr(p, field) for p in points], dtype=float)
    values = np.maximum(values, 1e-12)
    log_values = np.log(values)

    # Polynomial model: log y = a * log n + b.
    poly_coeffs, poly_res = _least_squares(np.log(sizes), log_values)
    # Exponential model: log y = a * n + b.
    exp_coeffs, exp_res = _least_squares(sizes, log_values)
    return {
        "polynomial_degree": poly_coeffs[0],
        "polynomial_residual": poly_res,
        "exponential_rate": exp_coeffs[0],
        "exponential_residual": exp_res,
        "exponential_fits_better": bool(exp_res < poly_res),
    }


def _least_squares(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    A = np.vstack([x, np.ones_like(x)]).T
    coeffs, residuals, _, _ = np.linalg.lstsq(A, y, rcond=None)
    if residuals.size:
        residual = float(residuals[0])
    else:
        residual = float(np.sum((A @ coeffs - y) ** 2))
    return coeffs, residual

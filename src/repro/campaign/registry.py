"""The scenario registry: every experiment E1-E13 as a named scenario.

Each entry binds one ``repro.experiments.run_*`` driver to its canonical
parameters (the table the corresponding ``benchmarks/bench_e*.py`` wrapper
asserts on), a reduced ``--smoke`` parameterisation that finishes in
seconds, and discoverable metadata.  The registry is the single source of
truth shared by the CLI (``python -m repro list/run/campaign``), the sweep
expander, the parallel runner and the benchmark wrappers.
"""

from __future__ import annotations

import os
from collections.abc import Iterator

from ..experiments import (
    run_convex_dag_experiment,
    run_fork_closed_form_experiment,
    run_heuristic_comparison_experiment,
    run_incremental_approx_experiment,
    run_mapping_ablation_experiment,
    run_np_hardness_experiment,
    run_reliability_simulation_experiment,
    run_series_parallel_experiment,
    run_solver_ablation_experiment,
    run_tricrit_chain_experiment,
    run_tricrit_fork_experiment,
    run_vdd_lp_experiment,
    run_vdd_rounding_experiment,
)
from .spec import ScenarioSpec

__all__ = ["register", "get_scenario", "iter_scenarios", "scenario_names"]

_REGISTRY: dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a scenario to the registry (name and experiment id must be new)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by registry name or experiment id (``e7`` / ``E7``)."""
    key = name.strip().lower()
    if key in _REGISTRY:
        return _REGISTRY[key]
    for spec in _REGISTRY.values():
        if spec.experiment.lower() == key:
            return spec
    raise KeyError(f"unknown scenario {name!r}; known: {', '.join(scenario_names())}")


def iter_scenarios() -> Iterator[ScenarioSpec]:
    """All registered scenarios in experiment order (registration order)."""
    return iter(_REGISTRY.values())


def scenario_names() -> list[str]:
    """Registered scenario names, in registration (E1..E13) order."""
    return list(_REGISTRY)


def _env_int(name: str, default: int) -> int:
    """Smoke trial counts honour the CI env overrides (REPRO_E11_TRIALS etc.)."""
    return int(os.environ.get(name, default))


# ----------------------------------------------------------------------
# E1-E3: closed forms vs the convex program
# ----------------------------------------------------------------------
register(ScenarioSpec(
    name="e1-fork-closed-form",
    experiment="E1",
    title="Fork theorem: closed-form energy vs numerical convex optimum",
    runner=run_fork_closed_form_experiment,
    defaults=dict(sizes=(2, 4, 8, 16, 32), slacks=(1.2, 2.0, 4.0), seed=7,
                  speed_range=(0.001, 50.0)),
    smoke=dict(sizes=(2, 4), slacks=(1.5,)),
    dag_family="fork", platform="multi", speed_model="continuous",
    solver="closed-form vs convex",
    columns=("children", "slack", "formula_energy", "closed_form_energy",
             "convex_energy", "relative_gap", "route"),
))

register(ScenarioSpec(
    name="e2-series-parallel",
    experiment="E2",
    title="Series-parallel equivalent-weight recursion vs convex solver",
    runner=run_series_parallel_experiment,
    defaults=dict(sizes=(4, 8, 12, 16), slacks=(1.5, 3.0), seed=11,
                  speed_range=(0.001, 60.0)),
    smoke=dict(sizes=(4,), slacks=(1.5,)),
    dag_family="series-parallel", platform="multi", speed_model="continuous",
    solver="closed-form vs convex",
))

register(ScenarioSpec(
    name="e3-convex-dag",
    experiment="E3",
    title="General DAGs: global convex optimum vs baselines and lower bound",
    runner=run_convex_dag_experiment,
    defaults=dict(num_processors=4, shapes=((3, 3), (4, 4), (5, 4)), slack=1.8,
                  seed=13),
    smoke=dict(shapes=((2, 2),)),
    dag_family="layered", platform="multi", speed_model="continuous",
    solver="convex",
))

# ----------------------------------------------------------------------
# E4-E6: the discrete speed models
# ----------------------------------------------------------------------
register(ScenarioSpec(
    name="e4-vdd-lp",
    experiment="E4",
    title="VDD-HOPPING LP vs continuous bound vs single-mode optimum",
    runner=run_vdd_lp_experiment,
    defaults=dict(modes=(0.2, 0.4, 0.6, 0.8, 1.0), chain_sizes=(5, 10, 20),
                  slack=1.7, seed=17, include_dag=True),
    smoke=dict(chain_sizes=(4,), include_dag=False),
    dag_family="chain", platform="single", speed_model="vdd",
    solver="lp:scipy",
))

register(ScenarioSpec(
    name="e5-np-hardness",
    experiment="E5",
    title="DISCRETE NP-completeness: 2-PARTITION reduction and scaling probes",
    runner=run_np_hardness_experiment,
    defaults=dict(partition_instances=((3, 1, 1, 2, 2, 1), (5, 5, 4, 3, 2, 1),
                                       (7, 3, 2, 2, 1, 1), (8, 6, 5, 4),
                                       (9, 7, 5, 3, 1), (2, 2, 2, 2)),
                  scaling_sizes=(4, 6, 8, 10, 12), lp_sizes=(4, 8, 16, 32, 64),
                  scaling_modes=(0.5, 1.0), seed=23),
    smoke=dict(partition_instances=((3, 1, 2, 2), (2, 2, 1)),
               scaling_sizes=(4, 6), lp_sizes=(4, 8)),
    dag_family="chain", platform="single", speed_model="discrete",
    solver="bruteforce vs lp",
    deterministic=False,        # the scaling probes record wall-clock seconds
))

register(ScenarioSpec(
    name="e6-incremental-approx",
    experiment="E6",
    title="INCREMENTAL approximation ratio vs the guaranteed factor",
    runner=run_incremental_approx_experiment,
    defaults=dict(deltas=(0.05, 0.1, 0.2, 0.3), Ks=(None, 2, 5), chain_size=10,
                  slack=1.6, seed=29, speed_range=(0.3, 1.0), include_dag=True),
    smoke=dict(deltas=(0.2,), Ks=(None, 2), chain_size=5, include_dag=False),
    dag_family="chain", platform="multi", speed_model="incremental",
    solver="approx vs continuous",
))

# ----------------------------------------------------------------------
# E7-E9: the tri-criteria problem
# ----------------------------------------------------------------------
register(ScenarioSpec(
    name="e7-tricrit-chain",
    experiment="E7",
    title="TRI-CRIT chains: greedy strategy vs exhaustive optimum",
    runner=run_tricrit_chain_experiment,
    defaults=dict(sizes=(4, 6, 8, 10), slacks=(2.0, 3.0), frel=None, seed=31),
    smoke=dict(sizes=(4,), slacks=(2.0,)),
    dag_family="chain", platform="single", speed_model="continuous",
    fault_model="analytic", solver="greedy vs exhaustive",
))

register(ScenarioSpec(
    name="e8-tricrit-fork",
    experiment="E8",
    title="TRI-CRIT forks: polynomial breakpoint scan vs brute force",
    runner=run_tricrit_fork_experiment,
    defaults=dict(sizes=(2, 3, 4, 6), slacks=(2.0, 3.0), frel=None, seed=37),
    smoke=dict(sizes=(2,), slacks=(2.0,)),
    dag_family="fork", platform="multi", speed_model="continuous",
    fault_model="analytic", solver="poly vs bruteforce",
))

register(ScenarioSpec(
    name="e9-heuristics",
    experiment="E9",
    title="TRI-CRIT heuristic families and their best-of across DAG classes",
    runner=run_heuristic_comparison_experiment,
    defaults=dict(specs=None, frel=None, seed=41, include_reference=True),
    smoke=dict(include_reference=False),
    dag_family="mixed", platform="multi", speed_model="continuous",
    fault_model="analytic", solver="heuristics",
))

# ----------------------------------------------------------------------
# E10-E12: adaptation, simulation, mapping ablation
# ----------------------------------------------------------------------
register(ScenarioSpec(
    name="e10-vdd-rounding",
    experiment="E10",
    title="Rounding the continuous heuristics to VDD-HOPPING: energy loss",
    runner=run_vdd_rounding_experiment,
    defaults=dict(specs=None, mode_counts=(3, 5, 9), frel=None, seed=43),
    smoke=dict(mode_counts=(3,)),
    dag_family="mixed", platform="multi", speed_model="vdd",
    fault_model="analytic", solver="rounding vs lp",
))

register(ScenarioSpec(
    name="e11-reliability-simulation",
    experiment="E11",
    title="Monte-Carlo reliability vs analytic model, with/without re-execution",
    runner=run_reliability_simulation_experiment,
    defaults=dict(chain_size=8, speed_fractions=(1.0, 0.8, 0.6, 0.4),
                  trials=4000, lambda0=1e-3, sensitivity=4.0, seed=47,
                  engine="batch"),
    smoke=dict(trials=_env_int("REPRO_E11_TRIALS", 400),
               speed_fractions=(1.0, 0.6)),
    dag_family="chain", platform="single", speed_model="continuous",
    fault_model="monte-carlo", solver="simulation:batch",
))

register(ScenarioSpec(
    name="e12-mapping-ablation",
    experiment="E12",
    title="Mapping heuristic ablation: downstream energy and simulated runs",
    runner=run_mapping_ablation_experiment,
    defaults=dict(shapes=((4, 4), (5, 4)), num_processors=4, slack=1.8, seed=53,
                  heuristics=("critical_path", "largest_first", "topological",
                              "min_loaded", "round_robin", "random"),
                  trials=1000, engine="batch"),
    smoke=dict(shapes=((3, 3),), trials=_env_int("REPRO_BENCH_TRIALS", 200),
               heuristics=("critical_path", "min_loaded", "random")),
    dag_family="layered", platform="multi", speed_model="continuous",
    fault_model="monte-carlo", solver="convex + simulation:batch",
))

# ----------------------------------------------------------------------
# E13: cross-solver ablation through the solver registry
# ----------------------------------------------------------------------
register(ScenarioSpec(
    name="e13-solver-ablation",
    experiment="E13",
    title="Solver-registry ablation: every admissible solver per DAG family",
    runner=run_solver_ablation_experiment,
    defaults=dict(families=("chain", "fork", "series-parallel", "dag"),
                  sizes=(5,), slacks=(2.0,), dag_shapes=((3, 2),),
                  num_processors=3, problem="tricrit", speeds="continuous",
                  solver="admissible", frel=None, problem_files=(),
                  engine="batch", seed=59),
    smoke=dict(families=("chain", "fork"), sizes=(3,)),
    dag_family="mixed", platform="multi", speed_model="continuous",
    fault_model="analytic", solver="registry (solver parameter sweepable)",
    columns=("family", "instance", "tasks", "solver", "exactness", "status",
             "energy", "ratio_to_exact"),
    batchable=True,
))

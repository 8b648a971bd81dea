"""Experiment E13: cross-solver ablation over the DAG-family grid.

The paper's algorithms are specialised by problem class (chain / fork /
series-parallel / general DAG, continuous / discrete speeds); this
experiment runs *every admissible registry solver* -- or one named solver,
or the auto-dispatcher -- on instances of every requested family and reports
each solver's energy against the best exact reference on the same instance.
It is the registry-level generalisation of the pairwise comparisons of
E7/E8/E9: one sweep ablates the whole solver family, and a campaign grid
over the ``solver`` parameter caches each solver x instance cell separately
in ``.repro-cache/``.

Instances come from the standard suites of
:mod:`repro.experiments.instances`; additionally, concrete problem-instance
files written by :func:`repro.core.problem_io.save_problem_json` can be
ablated via ``problem_files``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..api import default_engine
from ..core.problem_io import load_problem_json
from ..core.problems import BiCritProblem
from ..core.rng import resolve_seed
from ..solvers import (
    SolverContext,
    batch_is_feasible,
    get_solver,
    iter_solvers,
)
from .instances import (
    InstanceSpec,
    bicrit_problem,
    chain_suite,
    fork_suite,
    layered_suite,
    series_parallel_suite,
    tricrit_problem,
)

__all__ = ["run_solver_ablation_experiment", "ABLATION_FAMILIES"]

#: Families of the ablation grid, in canonical order.
ABLATION_FAMILIES = ("chain", "fork", "series-parallel", "dag")


def _family_specs(family: str, *, sizes: Sequence[int], slacks: Sequence[float],
                  dag_shapes: Sequence[tuple[int, int]], num_processors: int,
                  seed: int) -> list[InstanceSpec]:
    if family == "chain":
        return chain_suite(sizes=sizes, slacks=slacks, seed=seed)
    if family == "fork":
        return fork_suite(sizes=sizes, slacks=slacks, seed=seed + 1000)
    if family == "series-parallel":
        return series_parallel_suite(sizes=sizes, slacks=slacks, seed=seed + 2000)
    if family == "dag":
        return layered_suite(shapes=dag_shapes, num_processors=num_processors,
                             slacks=slacks, seed=seed + 3000)
    raise ValueError(f"unknown DAG family {family!r}; "
                     f"known: {', '.join(ABLATION_FAMILIES)}")


def _build_problem(spec: InstanceSpec, *, problem: str, speeds: str,
                   frel: float | None) -> BiCritProblem:
    if problem == "tricrit":
        return tricrit_problem(spec, speeds=speeds, frel=frel)
    if problem == "bicrit":
        return bicrit_problem(spec, speeds=speeds)
    raise ValueError(f"unknown problem kind {problem!r} (bicrit or tricrit)")


def run_solver_ablation_experiment(
        *, families: Sequence[str] = ABLATION_FAMILIES,
        sizes: Sequence[int] = (5,),
        slacks: Sequence[float] = (2.0,),
        dag_shapes: Sequence[tuple[int, int]] = ((3, 2),),
        num_processors: int = 3,
        problem: str = "tricrit",
        speeds: str = "continuous",
        solver: str = "admissible",
        frel: float | None = None,
        problem_files: Sequence[str] = (),
        engine: str = "batch",
        seed: int | np.random.Generator | None = 59) -> list[dict]:
    """E13: run registry solvers over a chain/fork/SP/DAG instance grid.

    Parameters
    ----------
    solver:
        ``"admissible"`` (default) runs every registry solver that admits
        each instance and records the inadmissible ones with their rejection
        reason; ``"auto"`` runs only the dispatcher's choice per instance;
        any registry name runs that single solver (instances it does not
        admit are recorded as ``status="inadmissible"``; unknown names and
        solver/problem-kind mismatches raise immediately).  A campaign grid
        over this parameter ablates solver x family with one cache record
        per cell.  ``ratio_to_exact`` normalises against the best feasible
        exact energy *within the same cell*, so in single-solver and
        ``auto`` cells it is NaN unless the solver that ran is itself exact
        -- join cells from an ``"admissible"`` run to compare heuristics
        against the exact reference.
    engine:
        ``"batch"`` (default) routes every solver x instance grid through
        :func:`repro.solvers.solve_batch`, evaluating each solver's cells as
        one vectorized group; ``"scalar"`` keeps the per-cell ``solve()``
        loop.  The two engines produce the same rows (within floating-point
        tolerance; equivalence is property-tested).
    problem_files:
        Extra concrete instances (JSON files from
        :func:`repro.core.problem_io.save_problem_json`), reported under
        family ``"file"``.
    """
    seed = resolve_seed(seed, 59)
    if engine not in ("batch", "scalar"):
        raise ValueError(f"unknown engine {engine!r} (batch or scalar)")
    if solver not in ("admissible", "auto"):
        # Fail fast on typos (and on solver/problem-kind mismatches) instead
        # of silently producing -- and caching -- an empty result set.
        descriptor = get_solver(solver)
        if descriptor.problem != problem:
            raise ValueError(
                f"solver {solver!r} solves {descriptor.problem.upper()} but this "
                f"ablation builds {problem.upper()} instances")
    instances: list[tuple[str, str, BiCritProblem]] = []
    for family in families:
        for spec in _family_specs(family, sizes=sizes, slacks=slacks,
                                  dag_shapes=dag_shapes,
                                  num_processors=num_processors, seed=seed):
            instances.append((family, spec.name,
                              _build_problem(spec, problem=problem, speeds=speeds,
                                             frel=frel)))
    for path in problem_files:
        loaded = load_problem_json(path)
        name = str(path).rsplit("/", 1)[-1].removesuffix(".json")
        instances.append(("file", name, loaded))

    ctxs = [SolverContext.for_problem(prob) for _, _, prob in instances]
    if engine == "batch":
        # One vectorized fmax-feasibility sweep instead of one walk each.
        batch_is_feasible([prob for _, _, prob in instances])

    # Pass 1: classify every solver x instance cell without running anything.
    # ``entry["cells"]`` holds the admissible cells whose energies are filled
    # in by pass 2 (either one scalar solve per cell or one batched solve
    # per solver group); row order matches the scalar loop exactly.
    entries: list[dict] = []
    for (family, name, prob), ctx in zip(instances, ctxs):
        if not ctx.is_feasible:
            # Generated suites are feasible by construction, but a problem
            # file may not be; one row beats N per-solver "infeasible" rows.
            entries.append({"pre": [{
                "family": family, "instance": name,
                "tasks": prob.graph.num_tasks, "solver": "-", "exactness": "-",
                "status": "infeasible-instance", "energy": math.inf,
                "ratio_to_exact": math.nan, "dispatched": False,
                "reason": (f"even at fmax the makespan is {ctx.min_makespan:.6g}"
                           f" > deadline {prob.deadline:.6g}"),
            }], "cells": [], "auto": False, "prob": prob, "ctx": ctx})
            continue
        entry = {"pre": [], "cells": [], "auto": solver == "auto",
                 "prob": prob, "ctx": ctx,
                 "family": family, "instance": name}
        for descriptor in iter_solvers():
            if descriptor.problem != ctx.kind:
                continue            # wrong problem kind: not an ablation cell
            if solver not in ("admissible", "auto") and descriptor.name != solver:
                continue
            ok, reason = descriptor.admissible(prob, ctx)
            row = {
                "family": family,
                "instance": name,
                "tasks": prob.graph.num_tasks,
                "solver": descriptor.name,
                "exactness": descriptor.exactness,
            }
            if not ok:
                if solver != "auto":
                    row.update(status="inadmissible", energy=math.nan,
                               ratio_to_exact=math.nan, dispatched=False,
                               reason=reason)
                    entry["pre"].append(row)
                continue
            if solver == "auto":
                continue            # handled through the dispatcher below
            entry["cells"].append((descriptor, row))
        entries.append(entry)

    # Pass 2: run the admissible cells, through the shared API engine so
    # repeated ablations of the same instances are served from its result
    # cache (and grid groups go through the vectorized batch kernel).
    api = default_engine()
    if engine == "scalar":
        for entry in entries:
            for descriptor, row in entry["cells"]:
                result, _ = api.submit(entry["prob"], solver=descriptor.name,
                                       context=entry["ctx"])
                row.update(status=result.status, energy=result.energy,
                           dispatched=False, reason=None)
            if entry["auto"]:
                result, _ = api.submit(entry["prob"], context=entry["ctx"])
                entry["auto_result"] = result
    else:
        groups: dict[str, list[tuple[dict, dict]]] = {}
        for entry in entries:
            for descriptor, row in entry["cells"]:
                groups.setdefault(descriptor.name, []).append((entry, row))
        for name_key, members in groups.items():
            pairs = api.submit_batch([e["prob"] for e, _ in members],
                                     solver=name_key)
            for (_, row), (result, _) in zip(members, pairs):
                row.update(status=result.status, energy=result.energy,
                           dispatched=False, reason=None)
        auto_entries = [e for e in entries if e["auto"]]
        if auto_entries:
            pairs = api.submit_batch([e["prob"] for e in auto_entries])
            for entry, (result, _) in zip(auto_entries, pairs):
                entry["auto_result"] = result

    # Pass 3: assemble rows and per-instance exact references.
    rows: list[dict] = []
    for entry in entries:
        rows.extend(entry["pre"])
        ran = [row for _, row in entry["cells"]]
        if entry.get("auto_result") is not None:
            result = entry["auto_result"]
            prob = entry["prob"]
            chosen = result.metadata["dispatch"]["solver"]
            descriptor = next(d for d in iter_solvers() if d.name == chosen)
            ran.append({
                "family": entry["family"], "instance": entry["instance"],
                "tasks": prob.graph.num_tasks,
                "solver": chosen, "exactness": descriptor.exactness,
                "status": result.status, "energy": result.energy,
                "dispatched": True, "reason": None,
            })
        # Reference: best feasible exact energy on this instance.  Only the
        # "admissible" mode may fall back to the best feasible energy of any
        # class (when the size caps exclude every exact solver); a
        # single-solver or auto cell must not normalise a heuristic against
        # itself, so without an exact run its ratio stays NaN.
        feasible = [r["energy"] for r in ran
                    if r["status"] in ("optimal", "feasible")
                    and math.isfinite(r["energy"])]
        exact = [r["energy"] for r in ran
                 if r["exactness"] == "exact"
                 and r["status"] in ("optimal", "feasible")
                 and math.isfinite(r["energy"])]
        if exact:
            reference = min(exact)
        elif feasible and solver == "admissible":
            reference = min(feasible)
        else:
            reference = math.nan
        for r in ran:
            if math.isfinite(r["energy"]) and math.isfinite(reference) and reference > 0:
                r["ratio_to_exact"] = r["energy"] / reference
            else:
                r["ratio_to_exact"] = math.nan
        rows.extend(ran)
    return rows

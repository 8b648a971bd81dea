"""Regenerate ``tricrit_pool.json``: the frozen TRI-CRIT instances of the
``tricrit-solve`` workload and their reference energies.

Run from the repository root::

    python3 perfbench/make_refs.py

Each instance is built from fixed generator seeds, solved once with
``solver="auto"`` (recording which solver dispatch picks and the B&B node
count), and once more with an independent exact solver wherever one is
tractable; the two energies must agree.  Instances are chosen by
machine-independent criteria (family, size and B&B node count), never by
wall time, so regenerating on another machine yields the same pool.
"""

from __future__ import annotations

import json
import math
import sys
import time

from workloads import POOL_PATH, require_repro

#: (family, reference solver or None when dispatch's own exact answer is the
#: reference, how many instances to keep)
FAMILIES = {
    "chain-exact": ("tricrit-pruned", 8),
    "fork-poly": ("tricrit-fork-bruteforce", 5),
    "layered-3x2": ("tricrit-exhaustive", 3),
    "layered-4x2": ("tricrit-exhaustive", 1),
    "chain-pruned": (None, 6),
    "chain-gap": (None, 3),
}

#: B&B node window for the pruned families: large enough that the search
#: does real branching, small enough to keep each solve well under 2 s.
NODE_WINDOW = (20, 700)

REL_TOL = 1e-6


def _candidates():
    """Deterministic candidate stream ``(family, label, problem)``."""
    from repro.dag import generators
    from repro.experiments.instances import InstanceSpec, tricrit_problem

    def make(family, label, graph, procs, slack, frel):
        spec = InstanceSpec(label, family, graph, procs, slack, 0)
        return family, label, tricrit_problem(spec, frel=frel)

    for i, (n, slack) in enumerate([(6, 1.5), (6, 2.0), (6, 2.5), (6, 3.0),
                                    (6, 1.8), (8, 1.5), (8, 2.0), (8, 2.5)]):
        yield make("chain-exact", f"chain-n{n}-s{slack}",
                   generators.random_chain(n, seed=11 * n + i), 1, slack, 0.8)
    for i, n in enumerate((4, 4, 4, 5, 5)):
        yield make("fork-poly", f"fork-n{n}-{i}",
                   generators.random_fork(n, seed=5 * n + i), n + 1, 2.0, 0.8)
    for seed in range(40):
        for layers, procs in ((3, 2), (4, 3)):
            yield make(f"layered-{layers}x2", f"layered-{layers}x2-p{procs}-{seed}",
                       generators.random_layered_dag(layers, 2, seed=seed),
                       procs, 2.0, 0.8)
    for seed in range(200):
        n = (20, 22, 24)[seed % 3]
        frel = (0.6, 0.7, 0.9)[(seed // 3) % 3]
        slack = (1.5, 2.0, 2.5)[(seed // 9) % 3]
        yield make("chain-pruned", f"chain-n{n}-f{frel}-s{slack}-{seed}",
                   generators.random_chain(n, seed=seed), 1, slack, frel)
    for seed in range(3):
        yield make("chain-gap", f"chain-n200-{seed}",
                   generators.random_chain(200, seed=1000 + seed), 1, 2.0, 0.8)


def build_pool() -> list[dict]:
    from repro.core.problem_io import problem_to_dict
    from repro.solvers.dispatch import solve

    kept: dict[str, list[dict]] = {name: [] for name in FAMILIES}
    for family, label, problem in _candidates():
        ref_solver, quota = FAMILIES[family]
        if len(kept[family]) >= quota:
            continue
        t0 = time.perf_counter()
        served = solve(problem)
        seconds = time.perf_counter() - t0
        nodes = served.metadata.get("nodes")
        if served.status == "infeasible" or not math.isfinite(served.energy):
            continue
        if served.solver == "tricrit-pruned" and not (
                NODE_WINDOW[0] <= (nodes or 0) <= NODE_WINDOW[1]):
            continue
        entry = {"family": family, "label": label,
                 "dispatched": served.metadata["dispatch"]["solver"],
                 "energy": served.energy,
                 "reference_solver": ref_solver or served.solver,
                 "seconds_at_freeze": round(seconds, 3),
                 "problem": problem_to_dict(problem)}
        if ref_solver is not None:
            reference = solve(problem, ref_solver)
            if abs(reference.energy - served.energy) > REL_TOL * reference.energy:
                raise SystemExit(f"{label}: {served.solver} gives "
                                 f"{served.energy!r}, {ref_solver} gives "
                                 f"{reference.energy!r}")
            entry["energy"] = reference.energy
        if family == "chain-gap":
            entry["lower_bound"] = served.metadata["lower_bound"]
        kept[family].append(entry)
        print(f"{family:15s} {label:32s} {entry['dispatched']:20s} "
              f"E={entry['energy']:.10g} {seconds:.3f}s nodes={nodes}",
              flush=True)
    short = {f: len(v) for f, v in kept.items() if len(v) < FAMILIES[f][1]}
    if short:
        raise SystemExit(f"not enough candidates for {short}")
    return [entry for family in FAMILIES for entry in kept[family]]


def main() -> int:
    require_repro()
    pool = build_pool()
    POOL_PATH.write_text(json.dumps({"instances": pool}, indent=1) + "\n")
    total = sum(e["seconds_at_freeze"] for e in pool)
    print(f"wrote {len(pool)} instances to {POOL_PATH} "
          f"(one pass ~{total:.1f} s of solver time here)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

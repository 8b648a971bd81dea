"""Central size limits shared by every exponential / enumerative solver.

Before the solver registry existed each exhaustive entry point carried its
own hard-coded guard (``max_tasks`` defaulted to 12 in
:func:`repro.discrete.tricrit_vdd.solve_tricrit_vdd_exact` but 14 in
:func:`repro.continuous.exhaustive.solve_tricrit_exhaustive`, for the same
``2^n`` subset enumeration).  The limits now live here, the solver
descriptors in :mod:`repro.solvers.registry` advertise them as capability
metadata, and the solver keyword defaults reference the same constants, so
one number governs one enumeration cost everywhere.

This module must stay import-free of the rest of the package (it is pulled
in by the algorithm modules while :mod:`repro.solvers` may still be mid
initialisation).
"""

from __future__ import annotations

__all__ = [
    "EXHAUSTIVE_SUBSET_MAX_TASKS",
    "CHAIN_EXACT_MAX_TASKS",
    "PRUNED_EXACT_MAX_TASKS",
    "PRUNED_CLASS_ENUM_BUDGET",
    "PRUNED_GAP_NODE_BUDGET",
    "FORK_BRUTEFORCE_MAX_TASKS",
    "DISCRETE_BRUTEFORCE_MAX_ASSIGNMENTS",
    "DISCRETE_BRUTEFORCE_MAX_TASKS",
    "BEST_KNOWN_EXHAUSTIVE_LIMIT",
    "BEST_KNOWN_PRUNED_LIMIT",
]

#: Positive-weight task bound for the ``2^n`` re-execution subset
#: enumerations, shared by TRI-CRIT CONTINUOUS (``solve_tricrit_exhaustive``)
#: and TRI-CRIT VDD-HOPPING (``solve_tricrit_vdd_exact``).  Each subset costs
#: one restricted convex solve, so 14 tasks means at most 16384 solves.
#:
#: On a single-processor mapping ``solve_tricrit_exhaustive`` applies this
#: guard and then returns the chain kernel's answer.
#:
#: Since the branch-and-bound solver (``tricrit-pruned``) landed, this limit
#: no longer sets the library's exact-solve ceiling -- it only guards the
#: blind reference enumerators, which the parity tests keep as ground truth.
#: The ceiling for dispatch is :data:`PRUNED_EXACT_MAX_TASKS`.
EXHAUSTIVE_SUBSET_MAX_TASKS = 14

#: The chain subset enumeration is cheaper per subset (one vectorized
#: water-fill cell of ``repro.solvers.batch.chain_subset_minimum`` instead
#: of a convex program), so it affords more tasks; the kernel cuts the
#: ``2^n`` subsets into chunks of its tensor budget, so memory stays
#: bounded up to this guard.  It guards *direct calls* to
#: ``solve_tricrit_chain_exact``; the registry descriptor caps dispatch
#: admissibility at :data:`EXHAUSTIVE_SUBSET_MAX_TASKS` so auto-dispatch
#: hands 15+-task chains to the pruned branch-and-bound instead of a ``2^n``
#: enumeration.
CHAIN_EXACT_MAX_TASKS = 22

#: Positive-weight task bound under which the branch-and-bound solver
#: (``repro.solvers.pruned``) is advertised as *exact*: dominance and dual
#: lower bounds prune the ``2^n`` subset tree far below enumeration cost, so
#: the ceiling sits well above the blind enumerators'.  Beyond it the
#: gap-certified anytime mode (``tricrit-pruned-gap``) takes over.
PRUNED_EXACT_MAX_TASKS = 30

#: Cap on the number of re-execution *count vectors* the pruned solver's
#: chain weight-class DP enumerates directly (tasks of equal weight are
#: interchangeable on a chain, so ``prod(count_w + 1)`` representative
#: subsets cover all ``2^n``).
PRUNED_CLASS_ENUM_BUDGET = 4096

#: Default branch-and-bound node budget of the gap-certified anytime mode;
#: each node costs one vectorized dual-bound evaluation plus at most one
#: exact subset solve.
PRUNED_GAP_NODE_BUDGET = 4000

#: Fork brute force enumerates ``2^(n+1)`` re-execution configurations with a
#: scalar minimisation each.
FORK_BRUTEFORCE_MAX_TASKS = 16

#: Cap on the ``m^n`` mode-assignment enumeration of the DISCRETE brute
#: force (``m`` speed modes, ``n`` tasks).
DISCRETE_BRUTEFORCE_MAX_ASSIGNMENTS = 2_000_000

#: Conservative task bound advertised for the DISCRETE brute force: with the
#: common 5-mode speed sets, ``5^9 < DISCRETE_BRUTEFORCE_MAX_ASSIGNMENTS``.
DISCRETE_BRUTEFORCE_MAX_TASKS = 9

#: Below this many positive-weight tasks, ``best_known_tricrit`` prefers the
#: exhaustive optimum over the heuristics as the reference value.
BEST_KNOWN_EXHAUSTIVE_LIMIT = 10

#: Between :data:`BEST_KNOWN_EXHAUSTIVE_LIMIT` and this many positive-weight
#: tasks, ``best_known_tricrit`` uses the pruned branch-and-bound optimum as
#: the reference value; beyond it the heuristics take over.
BEST_KNOWN_PRUNED_LIMIT = PRUNED_EXACT_MAX_TASKS

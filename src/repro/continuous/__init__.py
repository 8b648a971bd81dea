"""CONTINUOUS-model algorithms (Section III of the paper)."""

from .bicrit import solve_bicrit_continuous
from .closed_form import (
    ClosedFormSolution,
    NoFeasibleSpeedError,
    chain_bicrit,
    equivalent_weight,
    fork_bicrit,
    fork_energy,
    join_bicrit,
    series_parallel_bicrit,
)
from .convex import ConvexResult, solve_bicrit_continuous_dag, solve_bicrit_convex
from .exhaustive import best_known_tricrit, solve_tricrit_exhaustive
from .heuristics import (
    TRICRIT_HEURISTICS,
    best_of_heuristics,
    heuristic_energy_gain,
    heuristic_parallel_slack,
    solve_tricrit_no_reexec,
    solve_with_reexec_set,
)
from .tricrit_chain import solve_tricrit_chain_exact, solve_tricrit_chain_greedy
from .tricrit_fork import (
    best_choice_for_budget,
    solve_tricrit_fork,
    solve_tricrit_fork_bruteforce,
)

__all__ = [
    "solve_bicrit_continuous",
    "chain_bicrit",
    "fork_bicrit",
    "fork_energy",
    "join_bicrit",
    "series_parallel_bicrit",
    "equivalent_weight",
    "ClosedFormSolution",
    "NoFeasibleSpeedError",
    "ConvexResult",
    "solve_bicrit_convex",
    "solve_bicrit_continuous_dag",
    "solve_tricrit_chain_exact",
    "solve_tricrit_chain_greedy",
    "best_choice_for_budget",
    "solve_tricrit_fork",
    "solve_tricrit_fork_bruteforce",
    "solve_with_reexec_set",
    "solve_tricrit_no_reexec",
    "heuristic_energy_gain",
    "heuristic_parallel_slack",
    "best_of_heuristics",
    "TRICRIT_HEURISTICS",
    "solve_tricrit_exhaustive",
    "best_known_tricrit",
]

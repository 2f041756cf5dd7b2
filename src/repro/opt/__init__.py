"""Exact optimality baselines for the scheduling heuristics.

:mod:`repro.opt.exact` holds the small-instance branch-and-bound solver
(proved optima / certified bounds on makespan and MIN_MEM);
:func:`~repro.core.treesched.tree_order` — the ``tree`` heuristic
(the per-processor projection of program order) that the solver
benchmarks and seeds its incumbent with — lives in :mod:`repro.core`
next to RCP/MPO/DTS and is re-exported here for convenience.
"""

from ..core.treesched import tree_order
from .exact import (
    BEST_FOUND,
    DEFAULT_NODE_BUDGET,
    DEFAULT_ORDER_BUDGET,
    PROVED_OPTIMAL,
    ExactResult,
    exact_order,
    solve,
    solve_over_placements,
)
from .gaps import GapRow, WorkloadGaps, optimality_gaps

__all__ = [
    "BEST_FOUND",
    "DEFAULT_NODE_BUDGET",
    "DEFAULT_ORDER_BUDGET",
    "ExactResult",
    "GapRow",
    "PROVED_OPTIMAL",
    "WorkloadGaps",
    "exact_order",
    "optimality_gaps",
    "solve",
    "solve_over_placements",
    "tree_order",
]

"""The ``tree`` ordering heuristic: the per-processor projection of
program order.

Each processor runs its tasks in the graph's topological (program)
order.  A projection of a topological order of every task is always a
valid schedule, on trees and general DAGs alike.

The heuristic used to build a second candidate, Liu's minimum-memory
postorder (children in decreasing ``peak - net``, the sequential tree
rule behind Marchal, Sinnen & Vivien 2012), and kept whichever of the
two had the smaller MIN_MEM.  Program order won all 200 cells the
project ships (chol15, chol24, lu-goodwin and etree15 × P 2–32 ×
benchmark seeds 0–9), the paper's example and every optimality-gap
instance.  Liu was kept only on small generator graphs that no sweep,
table or benchmark runs (P 2–4, 200 seeds each: 298/600 ``random_trace``,
200/600 ``in_tree``, 78/600 ``layered_random`` and 23/600
``reduction_tree`` cells).  Liu's rule is sequential: it sums subtree
peaks across processors, while MIN_MEM is a per-processor maximum.  A
per-processor tree rule (in the style of Eyraud-Dubois et al. 2014)
would be a new heuristic; it is future work.
"""

from __future__ import annotations

from typing import Mapping

from ..graph.taskgraph import TaskGraph
from .index import check_assignment
from .placement import Placement
from .schedule import CommModel, Schedule, UNIT_COMM


def tree_order(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    comm: CommModel = UNIT_COMM,
) -> Schedule:
    """Schedule each processor's tasks in the graph's topological order.

    ``comm`` is accepted so that every ordering heuristic takes the same
    arguments; the rule does not read it.  Raises
    :class:`~repro.errors.SchedulingError` when a task has no processor
    in ``[0, P)``.
    """
    check_assignment(graph.task_names, placement.num_procs, assignment)
    orders: list[list[str]] = [[] for _ in range(placement.num_procs)]
    for t in graph.topological_order():
        orders[assignment[t]].append(t)
    return Schedule(
        graph=graph,
        placement=placement,
        assignment=dict(assignment),
        orders=orders,
        meta={"heuristic": "TREE"},
    )

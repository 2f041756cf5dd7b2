"""Inspector stage: from task graph to schedule (Figure 1 pipeline).

Given a transformed task graph, the inspector performs the two-stage
mapping of section 4 — clustering/mapping (owner-compute under a data
placement, or DSC + LPT for general graphs) and per-processor ordering
(RCP / MPO / DTS / DTS with slice merging) — and returns a validated
:class:`~repro.core.schedule.Schedule`.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..core.clustering import dsc_map
from ..core.dts import dts_order
from ..core.dynamic import etf_schedule
from ..core.mpo import mpo_order
from ..core.placement import Placement, cyclic_placement, owner_compute_assignment
from ..core.rcp import rcp_order
from ..core.schedule import CommModel, Schedule, UNIT_COMM
from ..core.treesched import tree_order
from ..errors import SchedulingError
from ..graph.taskgraph import TaskGraph
from ..opt.exact import exact_order

#: Names accepted by :func:`order_with` and :func:`parallelize`.
HEURISTICS = ("rcp", "mpo", "dts", "dts-merge", "etf", "tree", "exact")


def order_with(
    heuristic: str,
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    comm: CommModel = UNIT_COMM,
    capacity: Optional[int] = None,
) -> Schedule:
    """Dispatch to the named ordering heuristic, one of
    :data:`HEURISTICS`; any other name raises
    :class:`~repro.errors.SchedulingError`."""
    if heuristic == "rcp":
        return rcp_order(graph, placement, assignment, comm)
    if heuristic == "mpo":
        return mpo_order(graph, placement, assignment, comm)
    if heuristic == "dts":
        return dts_order(graph, placement, assignment, comm)
    if heuristic == "dts-merge":
        if capacity is None:
            raise SchedulingError("dts-merge needs the available memory capacity")
        return dts_order(graph, placement, assignment, comm, avail_mem=capacity)
    if heuristic == "etf":
        # Dynamic baseline: derives its own placement/assignment (the
        # given ones only fix the processor count).
        return etf_schedule(graph, placement.num_procs, comm)
    if heuristic == "tree":
        return tree_order(graph, placement, assignment, comm)
    if heuristic == "exact":
        return exact_order(graph, placement, assignment, comm, capacity=capacity)
    raise SchedulingError(f"unknown heuristic {heuristic!r}; use one of {HEURISTICS}")


def parallelize(
    graph: TaskGraph,
    num_procs: int,
    heuristic: str = "mpo",
    placement: Optional[Placement] = None,
    comm: CommModel = UNIT_COMM,
    capacity: Optional[int] = None,
    clustering: str = "owner-compute",
) -> Schedule:
    """Full inspector pipeline: placement -> clustering -> ordering.

    Parameters
    ----------
    placement:
        Data ownership.  ``None`` selects a cyclic placement for
        owner-compute clustering, or the DSC-derived placement when
        ``clustering="dsc"``.
    clustering:
        ``"owner-compute"`` (the sparse-code default) or ``"dsc"``
        (general DAGs; ignores ``placement``).
    """
    if clustering == "dsc":
        assignment, placement = dsc_map(graph, num_procs, comm)
    elif clustering == "owner-compute":
        if placement is None:
            placement = cyclic_placement(graph, num_procs)
        elif placement.num_procs != num_procs:
            raise SchedulingError(
                f"placement is for {placement.num_procs} processors, "
                f"asked for {num_procs}"
            )
        assignment = owner_compute_assignment(graph, placement)
    else:
        raise SchedulingError(
            f"unknown clustering {clustering!r}; use 'owner-compute' or 'dsc'"
        )
    return order_with(heuristic, graph, placement, assignment, comm, capacity)

"""RCP — Ready Critical Path ordering (the time-efficient baseline).

The paper's baseline ordering (section 4, citing Yang & Gerasoulis [20])
"executes tasks in the order of importance based on the critical path
information": at each scheduling cycle the processor with the earliest
idle time schedules its ready task with the longest path to an exit task,
*including communication delays on cross-processor edges* (see the
worked example: the path ``T[7,8], T[8], T[8,9]`` has length 4 because
one unit of communication delay is counted).

RCP is time efficient but not memory scalable (Figure 7): it freely
interleaves work on many volatile objects, stretching their lifetimes.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..graph.taskgraph import TaskGraph
from .index import MappingIndex, graph_index, mapping_index
from .listsched import BoundPolicy, run_list_scheduler
from .placement import Placement
from .schedule import CommModel, Schedule, UNIT_COMM


def rcp_priorities(
    graph: TaskGraph,
    assignment: Mapping[str, int],
    comm: CommModel = UNIT_COMM,
) -> dict[str, float]:
    """Mapping-aware critical-path (bottom-level) priority of each task.

    Equal to :func:`repro.graph.analysis.b_levels` under
    ``mapped_edge_cost(assignment, size_edge_cost(...))``, computed on
    the graph's shared :class:`~repro.core.index.GraphIndex`.
    """
    gi = graph_index(graph)
    names, succ, weight = gi.names, gi.succ, gi.weight
    proc = [assignment[t] for t in names]
    lat, bt = comm.latency, comm.byte_time
    bl = [0.0] * len(names)
    out: dict[str, float] = {}
    for i in reversed(gi.topo):
        # w(t) + max over successors s of (c + bl(s)), c charged only on
        # cross-processor data edges.
        pu = proc[i]
        best = 0.0
        for j, nb in succ[i]:
            if nb < 0 or proc[j] == pu:
                cand = bl[j]
            else:
                cand = (lat + bt * nb) + bl[j]
            if cand > best:
                best = cand
        out[names[i]] = bl[i] = weight[i] + best
    return out


def mapped_priorities(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    comm: CommModel = UNIT_COMM,
) -> dict[str, float]:
    """:func:`rcp_priorities` memoised on the mapping's
    :class:`~repro.core.index.MappingIndex`, so RCP, MPO, DTS, the exact
    solver and the certified bounds under one mapping compute the
    b-levels once.  Read-only: shared."""
    return mapping_b_levels(
        graph, assignment, mapping_index(graph, placement, assignment), comm)


def mapping_b_levels(
    graph: TaskGraph,
    assignment: Mapping[str, int],
    mi: MappingIndex,
    comm: CommModel,
) -> dict[str, float]:
    """:func:`mapped_priorities` on an already looked-up mapping index
    ``mi`` of (``graph``, ``assignment``)."""
    return mi.memo(("b-levels", comm), lambda: rcp_priorities(graph, assignment, comm))


def rcp_order(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    comm: CommModel = UNIT_COMM,
    meta: Optional[dict] = None,
) -> Schedule:
    """Order tasks on each processor by ready-critical-path priority."""
    mi = mapping_index(graph, placement, assignment)
    prio = mapping_b_levels(graph, assignment, mi, comm)
    keys = [(-prio[t],) for t in mi.names]
    info = {"heuristic": "RCP"}
    info.update(meta or {})
    return run_list_scheduler(
        graph, placement, assignment, BoundPolicy(mi, keys.__getitem__),
        comm=comm, meta=info,
    )

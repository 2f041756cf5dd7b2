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

from typing import Mapping, Sequence

from ..graph.taskgraph import TaskGraph
from .index import MappingIndex, graph_index, mapping_index
from .listsched import BoundPolicy, run_list_scheduler
from .placement import Placement
from .schedule import CommModel, Schedule, UNIT_COMM


def rcp_priorities(
    graph: TaskGraph,
    proc: Sequence[int],
    comm: CommModel = UNIT_COMM,
) -> list[float]:
    """Mapping-aware critical-path (bottom-level) priority of every task
    id, with ``proc[i]`` the processor of task id ``i`` (a
    :class:`~repro.core.index.MappingIndex`'s ``proc``, or
    :func:`~repro.core.index.check_assignment`'s result).

    Equal, by task id, to :func:`repro.graph.analysis.b_levels` under
    ``mapped_edge_cost(assignment, size_edge_cost(...))``, computed on
    the graph's shared :class:`~repro.core.index.GraphIndex`.
    """
    gi = graph_index(graph)
    succ, weight = gi.succ, gi.weight
    lat, bt = comm.latency, comm.byte_time
    bl = [0.0] * len(weight)
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
        bl[i] = weight[i] + best
    return bl


def mapping_b_levels(
    graph: TaskGraph, mi: MappingIndex, comm: CommModel
) -> list[float]:
    """:func:`rcp_priorities` of mapping index ``mi`` (of ``graph``),
    memoised on it per communication model, so RCP, MPO, DTS, the exact
    solver and the certified bounds under one mapping compute the
    b-levels once.  Read-only: shared."""
    return mi.memo(("b-levels", comm), lambda: rcp_priorities(graph, mi.proc, comm))


def rcp_order(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    comm: CommModel = UNIT_COMM,
) -> Schedule:
    """Order tasks on each processor by ready-critical-path priority."""
    mi = mapping_index(graph, placement, assignment)
    keys = [-b for b in mapping_b_levels(graph, mi, comm)]
    return run_list_scheduler(
        graph, placement, assignment, BoundPolicy(keys.__getitem__),
        comm=comm, meta={"heuristic": "RCP"},
    )

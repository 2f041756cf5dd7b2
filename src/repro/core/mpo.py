"""MPO — Memory-Priority guided Ordering (section 4.1, Figure 4).

MPO simulates an execution following the task dependencies.  At each
cycle the processor with the earliest idle time schedules the ready task
with the highest *memory priority*: the fraction of the task's data
objects whose space is already available on the processor — permanent
objects count as always available, volatile objects count once some
scheduled task of the processor touched them ("when a task is chosen to
be scheduled, all volatile objects this task needs are allocated").
Ties break on the critical-path (bottom-level) priority.

The goal is to reference volatile objects as early as possible after
their allocation, shortening lifetimes and reducing ``MIN_MEM``
(compare Figures 2(b) and 2(c)): in the worked example, at time 6 on
``P1``, ``T[3,10]`` (memory priority 1: ``d3`` allocated, ``d10``
permanent) is preferred over the longer-path ``T[7,8]`` (priority 0.5:
``d7`` not yet allocated).

The implementation keeps the update cost low, as the paper requires
(line (5) of Figure 4 refreshes only children and siblings): when a task
is scheduled, only the tasks of the same processor that access a newly
allocated volatile object get their priority refreshed — each
(task, object) pair is touched at most once overall, so the bookkeeping
is ``O(total accesses)`` on top of the heap operations.
"""

from __future__ import annotations

from collections import defaultdict
from operator import neg, sub
from typing import TYPE_CHECKING, Mapping

from ..graph.taskgraph import TaskGraph
from .index import graph_index
from .listsched import BoundPolicy, run_list_scheduler
from .placement import Placement
from .rcp import mapping_b_levels
from .schedule import CommModel, Schedule, UNIT_COMM

if TYPE_CHECKING:
    from .index import GraphIndex, MappingIndex


class MemoryPriorityPolicy:
    """Dynamic (memory ratio, critical path) priority for MPO.

    The counters live in task-id arrays: ``need[i]`` (the task's object
    count), ``have[i]`` (objects whose space is available) and the
    watchers of each (processor, volatile object id) pair.  The list
    scheduler runs it as the :class:`~repro.core.listsched.BoundPolicy`
    that :meth:`of_mapping` builds.
    """

    def __init__(self, gi: "GraphIndex", mi: "MappingIndex", bl: list[float]):
        # Negated critical path, the second component of the heap key.
        self._ncp = list(map(neg, bl))
        # The volatile (non-owned) object ids of each task; permanent
        # objects count as always available.
        rows = self._rows = mi.vola_oids
        # Per-task denominator and (mutable) numerator of the memory ratio.
        self._need = [len(acc) or 1 for acc in gi.accesses]
        self._have = list(map(sub, map(len, gi.accesses), map(len, rows)))
        # proc * #objects + volatile object id -> task ids of that
        # processor accessing it, until the pair is allocated.
        nobj = self._nobj = len(gi.object_names)
        watchers: defaultdict[int, list[int]] = defaultdict(list)
        for i, (row, p) in enumerate(zip(rows, mi.proc)):
            base = p * nobj
            for o in row:
                watchers[base + o].append(i)
        self._watchers = watchers

    @classmethod
    def of_mapping(
        cls, gi: "GraphIndex", mi: "MappingIndex", bl: list[float]
    ) -> BoundPolicy:
        """The list scheduler's policy under mapping index ``mi`` with
        the mapped b-levels ``bl`` (by task id): ``key(i)`` is the
        negated (memory ratio, b-level) of task ``i``."""
        pol = cls(gi, mi, bl)
        have, need, ncp = pol._have, pol._need, pol._ncp

        def key(i: int) -> tuple:
            return (-(have[i] / need[i]), ncp[i])

        return BoundPolicy(key, pol._scheduled)

    def _scheduled(self, i: int, proc: int) -> list[int]:
        """Allocate task ``i``'s volatile objects on ``proc``; the ids
        whose ratio rose (line (5) of Figure 4)."""
        changed: list[int] = []
        watchers, have = self._watchers, self._have
        base = proc * self._nobj
        for o in self._rows[i]:
            # An allocated pair has no watchers left.
            for u in watchers.pop(base + o, ()):
                if u != i:
                    have[u] += 1
                    changed.append(u)
        return changed


def mpo_order(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    comm: CommModel = UNIT_COMM,
) -> Schedule:
    """Order tasks on each processor with the MPO heuristic (Figure 4)."""
    gi = graph_index(graph)
    mi = gi.mapping(placement, assignment)
    policy = MemoryPriorityPolicy.of_mapping(gi, mi, mapping_b_levels(graph, mi, comm))
    return run_list_scheduler(
        graph, placement, assignment, policy, comm=comm, meta={"heuristic": "MPO"},
    )

"""Shared list-scheduling engine for the ordering heuristics.

The second mapping stage of the paper (section 4) orders the tasks of
each processor given a fixed task -> processor assignment.  RCP, MPO and
DTS all instantiate the same scheduling cycle (Figure 4):

1. find the processor with the earliest idle time among processors that
   have *ready* tasks (a task is ready when all its predecessors have
   been scheduled — their data "can be received at this point");
2. on that processor, schedule the ready task with the highest priority;
3. update priorities and ready sets.

The engine is parameterised by a :class:`PriorityPolicy`:

* ``priority(task)`` returns a sortable tuple (larger = scheduled
  first);
* ``on_scheduled(task, proc)`` lets the policy update internal state and
  return the set of tasks whose priority changed (their heap entries are
  refreshed lazily);
* optional per-task *levels* implement DTS's slice gate: a ready task
  whose level is higher than its processor's minimum incomplete level is
  parked until every lower-level task of that processor is scheduled.

The loop itself runs in the dense task ids of the graph's shared
:class:`~repro.core.index.GraphIndex` and turns ids back into names
only for :attr:`Schedule.orders`.  A policy reaches it through a
*binding* — ``(key, scheduled)`` with ``key(id)`` the negated sort key
and ``scheduled(id, proc)`` the ids whose key changed (``None``: never).
:class:`StaticPolicy` binds to keys computed once and
:class:`~repro.core.mpo.MemoryPriorityPolicy` to its id-array counters
(each through a ``bind(gi)`` method); any other, name-keyed policy runs
through a small adapter that translates at the boundary.  The
heuristics pass a :class:`BoundPolicy` built on the mapping index they
already looked up.

Start times follow the macro-dataflow model: a task starts at
``max(processor idle time, latest data arrival)`` where cross-processor
arrivals pay the :class:`~repro.core.schedule.CommModel` cost.  Arrival
times are pushed along each finished task's successor edges, so no
predecessor is revisited; since the model's costs and every idle time
are non-negative, the ``0.0`` a task's arrival time starts from never
exceeds its start.
"""

from __future__ import annotations

import heapq
import operator
from typing import (
    TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Optional, Protocol,
)

from ..errors import SchedulingError
from ..graph.taskgraph import TaskGraph
from .index import graph_index
from .placement import Placement
from .schedule import CommModel, Schedule, UNIT_COMM

if TYPE_CHECKING:
    from .index import GraphIndex, MappingIndex

#: Negated sort key of a task id (smaller is scheduled first).
KeyFn = Callable[[int], tuple]
#: ``scheduled(id, proc)``: ids whose key changed once ``id`` is placed.
ScheduledFn = Callable[[int, int], Iterable[int]]


class PriorityPolicy(Protocol):
    """Strategy object consumed by :func:`run_list_scheduler`."""

    def priority(self, task: str) -> tuple:
        """Sort key of a ready task; larger tuples are scheduled first."""
        ...

    def on_scheduled(self, task: str, proc: int) -> Iterable[str]:
        """Notify that ``task`` was placed; return tasks whose priority
        changed (only ready tasks need to be reported)."""
        ...


class StaticPolicy:
    """Priorities fixed up-front (RCP, DTS-within-slice)."""

    def __init__(self, priorities: Mapping[str, tuple | float]):
        self._p = {
            t: (v if isinstance(v, tuple) else (v,)) for t, v in priorities.items()
        }

    def priority(self, task: str) -> tuple:
        try:
            return self._p[task]
        except KeyError:
            raise SchedulingError(
                f"priority policy has no priority for task {task!r}"
            ) from None

    def on_scheduled(self, task: str, proc: int) -> Iterable[str]:
        return ()

    def bind(self, gi: "GraphIndex") -> tuple[KeyFn, None]:
        """Negated keys of every task id, computed once."""
        keys = [_neg(self.priority(t)) for t in gi.names]
        return keys.__getitem__, None


def _bind_names(policy: PriorityPolicy, gi: "GraphIndex") -> tuple[KeyFn, ScheduledFn]:
    """Adapter binding of a name-keyed policy: ids become names on the
    way in and names (unknown ones dropped) become ids on the way out."""
    names, tid = gi.names, gi.tid
    priority, on_scheduled = policy.priority, policy.on_scheduled

    def key(i: int) -> tuple:
        return _neg(priority(names[i]))

    def scheduled(i: int, p: int) -> list[int]:
        return [k for k in map(tid.get, on_scheduled(names[i], p)) if k is not None]

    return key, scheduled


def check_assignment(
    graph: TaskGraph, placement: Placement, assignment: Mapping[str, int]
) -> None:
    """Raise :class:`~repro.errors.SchedulingError` unless every task is
    assigned a processor in ``[0, P)``."""
    nprocs = placement.num_procs
    for t in graph.task_names:
        if t not in assignment:
            raise SchedulingError(f"task {t!r} has no processor assignment")
        q = assignment[t]
        if not 0 <= q < nprocs:
            raise SchedulingError(
                f"task {t!r} is assigned to processor {q}, outside "
                f"[0, {nprocs})"
            )


class BoundPolicy(NamedTuple):
    """A policy already bound to the task ids of one mapping: what RCP,
    MPO and DTS hand :func:`run_list_scheduler` after looking up the
    mapping's :class:`~repro.core.index.MappingIndex` ``mi`` (and
    checking the assignment) themselves, so each ordering call does
    both once.  ``mi`` must be the index of the call's graph, placement
    and assignment."""

    mi: "MappingIndex"
    key: KeyFn
    scheduled: Optional[ScheduledFn] = None


def run_list_scheduler(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    policy: PriorityPolicy | BoundPolicy,
    comm: CommModel = UNIT_COMM,
    levels: Optional[Mapping[str, int]] = None,
    meta: Optional[dict] = None,
) -> Schedule:
    """Order the tasks of every processor with the given policy.

    Runs in the dense id space of the graph's shared
    :class:`~repro.core.index.GraphIndex`; a policy without a
    ``bind(gi)`` method sees task names through an adapter.  Returns a
    :class:`~repro.core.schedule.Schedule` that is structurally valid by
    construction.  Raises :class:`~repro.errors.SchedulingError` when a
    task has no processor in ``[0, P)``, no static priority or no level.
    """
    gi = graph_index(graph)
    if isinstance(policy, BoundPolicy):
        mi, key, scheduled = policy
    else:
        check_assignment(graph, placement, assignment)
        mi = gi.mapping(placement, assignment)
        bind = getattr(policy, "bind", None)
        key, scheduled = bind(gi) if bind is not None else _bind_names(policy, gi)
    nprocs = placement.num_procs
    names, succ, weight = gi.names, gi.succ, gi.weight
    proc = mi.proc
    lat, bt = comm.latency, comm.byte_time
    n = len(names)
    remaining = list(gi.in_degree)
    # Latest data arrival of each task, pushed by its predecessors.
    arrival = [0.0] * n
    done = bytearray(n)
    idle = [0.0] * nprocs
    orders: list[list[int]] = [[] for _ in range(nprocs)]

    # Per-processor ready heaps of (negated priority, push counter, task
    # id, version) with lazy invalidation.
    heaps: list[list[tuple]] = [[] for _ in range(nprocs)]
    version = [0] * n
    counter = 0

    # Earliest-idle selection: processors with (potentially) ready tasks
    # sit in a priority queue keyed by (idle, proc).  A processor holds
    # at most one entry; its idle time only changes while it is *out* of
    # the queue (it is popped before being scheduled on), so entries are
    # never stale.  Popping yields the minimum idle with the smallest
    # processor id on ties — the same choice as a linear scan.
    proc_pq: list[tuple[float, int]] = []
    in_pq = [False] * nprocs

    def activate(p: int) -> None:
        if not in_pq[p]:
            in_pq[p] = True
            heapq.heappush(proc_pq, (idle[p], p))

    # DTS slice gate state.
    lvl: Optional[list[int]] = None
    lvl_remaining: list[dict[int, int]] = [dict() for _ in range(nprocs)]
    min_level: list[int] = [0] * nprocs
    parked: list[list[tuple[int, int, int]]] = [[] for _ in range(nprocs)]
    if levels is not None:
        try:
            lvl = [levels[t] for t in names]
        except KeyError as err:
            raise SchedulingError(
                f"levels map has no level for task {err.args[0]!r}"
            ) from None
        for i in range(n):
            rem = lvl_remaining[proc[i]]
            rem[lvl[i]] = rem.get(lvl[i], 0) + 1
        for p in range(nprocs):
            min_level[p] = min(lvl_remaining[p], default=0)

    def push(i: int) -> None:
        nonlocal counter
        p = proc[i]
        if lvl is not None and lvl[i] > min_level[p]:
            heapq.heappush(parked[p], (lvl[i], counter, i))
            counter += 1
            return
        counter += 1
        heapq.heappush(heaps[p], (key(i), counter, i, version[i]))
        activate(p)

    def unpark(p: int) -> None:
        """Move parked tasks whose level became current into the heap."""
        nonlocal counter
        while parked[p] and parked[p][0][0] <= min_level[p]:
            _, _, i = heapq.heappop(parked[p])
            counter += 1
            heapq.heappush(heaps[p], (key(i), counter, i, version[i]))
            activate(p)

    for i in range(n):
        if remaining[i] == 0:
            push(i)

    for left in range(n, 0, -1):
        # Processor with earliest idle time among those with ready tasks.
        best_p = -1
        while proc_pq:
            _, p = heapq.heappop(proc_pq)
            in_pq[p] = False
            h = heaps[p]
            # Drop stale heads so emptiness is accurate.
            while h and (h[0][3] != version[h[0][2]] or done[h[0][2]]):
                heapq.heappop(h)
            if h:
                best_p = p
                break
            # Only stale entries: dormant until the next push wakes it.
        if best_p < 0:
            raise SchedulingError(
                f"list scheduler stalled with {left} tasks left "
                "(inconsistent levels or assignment)"
            )
        i = heapq.heappop(heaps[best_p])[2]
        # Earliest start: processor idle time vs latest data arrival.
        est = idle[best_p]
        if arrival[i] > est:
            est = arrival[i]
        finish = idle[best_p] = est + weight[i]
        done[i] = 1
        orders[best_p].append(i)

        # Slice-gate bookkeeping.
        if lvl is not None:
            rem = lvl_remaining[best_p]
            l = lvl[i]
            rem[l] -= 1
            if rem[l] == 0:
                del rem[l]
                min_level[best_p] = min(rem, default=min_level[best_p])
                unpark(best_p)

        # Arrivals and ready-set updates.
        for s, nb in succ[i]:
            arr = finish
            if proc[s] != best_p:
                arr += lat + nb * bt if nb >= 0 else lat
            if arr > arrival[s]:
                arrival[s] = arr
            remaining[s] -= 1
            if remaining[s] == 0:
                push(s)

        # Priority refreshes from the policy.
        if scheduled is not None:
            for k in scheduled(i, best_p):
                if done[k] or remaining[k] != 0:
                    continue
                version[k] += 1
                push(k)

        # The chosen processor left the queue; requeue it (at its new
        # idle time) while it still has queued entries.
        if heaps[best_p]:
            activate(best_p)

    # Every task was placed once, on its own processor: the orders are
    # structurally valid by construction.
    return Schedule(
        graph=graph,
        placement=placement,
        assignment=dict(assignment),
        orders=[[names[i] for i in order] for order in orders],
        meta=dict(meta or {}),
    )


def _neg(t: tuple) -> tuple:
    """Negated priority tuple (the heaps are min-heaps)."""
    return tuple(map(operator.neg, t))

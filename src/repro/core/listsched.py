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

Start times follow the macro-dataflow model: a task starts at
``max(processor idle time, latest data arrival)`` where cross-processor
arrivals pay the :class:`~repro.core.schedule.CommModel` cost.
"""

from __future__ import annotations

import heapq
import operator
from typing import Iterable, Mapping, Optional, Protocol

from ..errors import SchedulingError
from ..graph.taskgraph import TaskGraph
from .index import graph_index
from .placement import Placement
from .schedule import CommModel, Schedule, UNIT_COMM


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


def run_list_scheduler(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    policy: PriorityPolicy,
    comm: CommModel = UNIT_COMM,
    levels: Optional[Mapping[str, int]] = None,
    meta: Optional[dict] = None,
) -> Schedule:
    """Order the tasks of every processor with the given policy.

    Runs in the dense id space of the graph's shared
    :class:`~repro.core.index.GraphIndex`; the policy still sees task
    names.  Returns a validated :class:`~repro.core.schedule.Schedule`.
    Raises :class:`~repro.errors.SchedulingError` when a task has no
    processor in ``[0, P)``, no static priority or no level.
    """
    check_assignment(graph, placement, assignment)
    nprocs = placement.num_procs

    gi = graph_index(graph)
    names, tid, succ, pred, weight = gi.names, gi.tid, gi.succ, gi.pred, gi.weight
    proc = gi.mapping(placement, assignment).proc
    lat, bt = comm.latency, comm.byte_time
    n = len(names)
    remaining = list(gi.in_degree)
    finish = [0.0] * n
    done = [False] * n
    idle = [0.0] * nprocs
    orders: list[list[str]] = [[] for _ in range(nprocs)]

    # Per-processor ready heaps of (negated priority, push counter, task
    # id, version) with lazy invalidation.
    heaps: list[list[tuple]] = [[] for _ in range(nprocs)]
    version = [0] * n
    counter = 0
    # A static policy's keys are negated once instead of at every push.
    static_key = (
        [_neg(policy.priority(t)) for t in names]
        if type(policy) is StaticPolicy else None
    )

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

    def key(i: int) -> tuple:
        return static_key[i] if static_key is not None else _neg(policy.priority(names[i]))

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

    scheduled = 0
    total = graph.num_tasks
    for i in range(n):
        if remaining[i] == 0:
            push(i)

    while scheduled < total:
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
                f"list scheduler stalled with {total - scheduled} tasks left "
                "(inconsistent levels or assignment)"
            )
        i = heapq.heappop(heaps[best_p])[2]
        # Earliest start: processor idle time vs data arrivals.
        est = idle[best_p]
        for j, nb in pred[i]:
            arr = finish[j]
            if proc[j] != best_p:
                arr += lat + nb * bt if nb >= 0 else lat
            if arr > est:
                est = arr
        finish[i] = idle[best_p] = est + weight[i]
        done[i] = True
        task = names[i]
        orders[best_p].append(task)
        scheduled += 1

        # Slice-gate bookkeeping.
        if lvl is not None:
            rem = lvl_remaining[best_p]
            l = lvl[i]
            rem[l] -= 1
            if rem[l] == 0:
                del rem[l]
                min_level[best_p] = min(rem, default=min_level[best_p])
                unpark(best_p)

        # Ready-set updates.
        for s, _ in succ[i]:
            remaining[s] -= 1
            if remaining[s] == 0:
                push(s)

        # Priority refreshes from the policy.
        for u in policy.on_scheduled(task, best_p):
            k = tid.get(u)
            if k is None or done[k] or remaining[k] != 0:
                continue
            version[k] += 1
            push(k)

        # The chosen processor left the queue; requeue it (at its new
        # idle time) while it still has queued entries.
        if heaps[best_p]:
            activate(best_p)

    schedule = Schedule(
        graph=graph,
        placement=placement,
        assignment=dict(assignment),
        orders=orders,
        meta=dict(meta or {}),
    )
    schedule.validate()
    return schedule


def _neg(t: tuple) -> tuple:
    """Negated priority tuple (the heaps are min-heaps)."""
    return tuple(map(operator.neg, t))

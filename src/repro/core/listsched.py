"""Shared list-scheduling engine for the ordering heuristics.

The second mapping stage of the paper (section 4) orders the tasks of
each processor given a fixed task -> processor assignment.  RCP, MPO and
DTS all instantiate the same scheduling cycle (Figure 4):

1. find the processor with the earliest idle time among processors that
   have *ready* tasks (a task is ready when all its predecessors have
   been scheduled — their data "can be received at this point");
2. on that processor, schedule the ready task with the highest priority;
3. update priorities and ready sets.

The heuristics differ only in the priority, which they hand the engine
as a :class:`BoundPolicy` in the dense task ids of the graph's shared
:class:`~repro.core.index.GraphIndex`: ``key(id)`` the task's negated
sort key (smaller is scheduled first) and ``scheduled(id, proc)`` the
ids whose key changed once the task is placed (``None``: never).  The
engine takes each task's processor from the mapping's
:class:`~repro.core.index.MappingIndex` of the graph, placement and
assignment it is given.  Optional per-task *levels*
implement DTS's slice gate: a ready task whose level is higher than
its processor's minimum incomplete level is parked until every
lower-level task of that processor is scheduled.  The loop turns ids
back into names only for :attr:`Schedule.orders`.

The ready heaps hold one of two entry shapes:

* a *static* policy (``scheduled is None``: RCP and DTS, whose key is
  the negated b-level, one float) pushes each task exactly once, so
  its entries never go stale: ``(key, counter, id)``;
* a *dynamic* policy (MPO) re-pushes a task whose key changed, so its
  keys are tuples of one length and its entries are versioned and
  flat, ``key + (counter, id, version)``; a popped head whose version
  is old is dropped.

``counter`` counts pushes: equal keys leave the earlier push first.

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
from typing import Callable, Iterable, Mapping, NamedTuple, NoReturn, Optional

from ..errors import SchedulingError
from ..graph.taskgraph import TaskGraph
from .index import graph_index
from .placement import Placement
from .schedule import CommModel, Schedule, UNIT_COMM

#: Negated sort key of a task id (smaller is scheduled first): a float
#: for a static policy, a tuple for a dynamic one.
KeyFn = Callable[[int], "float | tuple"]
#: ``scheduled(id, proc)``: ids whose key changed once ``id`` is placed.
ScheduledFn = Callable[[int, int], Iterable[int]]


class BoundPolicy(NamedTuple):
    """A priority on task ids: what RCP, MPO and DTS hand
    :func:`run_list_scheduler`."""

    #: negated sort key of a task id (see the module docstring)
    key: KeyFn
    scheduled: Optional[ScheduledFn] = None


def run_list_scheduler(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    policy: BoundPolicy,
    comm: CommModel = UNIT_COMM,
    levels: Optional[Mapping[str, int]] = None,
    meta: Optional[dict] = None,
) -> Schedule:
    """Order the tasks of every processor with the given policy.

    Runs in the dense id space of the graph's shared
    :class:`~repro.core.index.GraphIndex`.  Returns a
    :class:`~repro.core.schedule.Schedule` that is structurally valid by
    construction.  Raises :class:`~repro.errors.SchedulingError` for a
    task without a processor in ``[0, P)``
    (:func:`~repro.core.index.check_assignment`) and for a task with no
    level.
    """
    gi = graph_index(graph)
    key, scheduled = policy
    nprocs = placement.num_procs
    names, succ, weight = gi.names, gi.succ, gi.weight
    # The heuristic looked this mapping up (checking the assignment)
    # already, so this repeat lookup takes the last-key fast path.
    proc = gi.mapping(placement, assignment).proc
    lat, bt = comm.latency, comm.byte_time
    n = len(names)
    heappush, heappop, heappushpop = heapq.heappush, heapq.heappop, heapq.heappushpop
    static = scheduled is None
    if static:
        # Each task is pushed once, its entry headed by its key.
        keys = list(map(key, range(n)))
    else:
        # The entries of a task's stale pushes carry an old version.
        version = [0] * n
    # Unscheduled predecessors of each task (dynamic policies: -1 once
    # it is scheduled).
    remaining = list(gi.in_degree)
    # Latest data arrival of each task, pushed by its predecessors.
    arrival = [0.0] * n
    idle = [0.0] * nprocs
    orders: list[list[int]] = [[] for _ in range(nprocs)]
    heaps: list[list[tuple]] = [[] for _ in range(nprocs)]
    counter = 0

    # Earliest-idle selection: processors with (potentially) ready tasks
    # sit in a priority queue keyed by (idle, proc).  A processor holds
    # at most one entry; its idle time only changes while it is *out* of
    # the queue (it is popped before being scheduled on), so entries are
    # never stale.  Popping yields the minimum idle with the smallest
    # processor id on ties — the same choice as a linear scan.  The
    # processor just scheduled on stays marked queued and goes back in
    # by the next selection's push-pop (``requeue``), one heap operation
    # instead of two.
    proc_pq: list[tuple[float, int]] = []
    in_pq = [False] * nprocs
    requeue: Optional[tuple[float, int]] = None

    # DTS slice gate: a ready task above its processor's minimum
    # remaining level is parked.  So every task is scheduled at that
    # minimum, which only rises: it steps along the processor's sorted
    # distinct levels as each level's last task is scheduled.
    lvl: Optional[list[int]] = None
    if levels is not None:
        try:
            lvl = [levels[t] for t in names]
        except KeyError as err:
            raise SchedulingError(
                f"levels map has no level for task {err.args[0]!r}"
            ) from None
        per_level: list[dict[int, int]] = [{} for _ in range(nprocs)]
        for l, p in zip(lvl, proc):
            c = per_level[p]
            c[l] = c.get(l, 0) + 1
        steps = [sorted(c) for c in per_level]
        # Tasks left at each of those levels, and the current one.
        left_at = [[c[l] for l in lv] for c, lv in zip(per_level, steps)]
        step = [0] * nprocs
        min_level = [lv[0] if lv else 0 for lv in steps]
        parked: list[list[tuple[int, int, int]]] = [[] for _ in range(nprocs)]

    # The roots are ready from the start (a first push: version 0).
    for i in range(n):
        if remaining[i] == 0:
            p = proc[i]
            if lvl is not None and lvl[i] > min_level[p]:
                heappush(parked[p], (lvl[i], counter, i))
            else:
                heappush(heaps[p], (keys[i], counter, i) if static
                         else key(i) + (counter, i, 0))
                if not in_pq[p]:
                    in_pq[p] = True
                    heappush(proc_pq, (idle[p], p))
            counter += 1

    for left in range(n, 0, -1):
        # Processor with earliest idle time among those with ready
        # tasks, and its best ready task.
        if static:
            # Static entries are never stale: a queued processor has one.
            if requeue is not None:
                best_p = heappushpop(proc_pq, requeue)[1]
            elif proc_pq:
                best_p = heappop(proc_pq)[1]
            else:
                _stalled(left)
            i = heappop(heaps[best_p])[2]
        else:
            while True:
                if requeue is not None:
                    best_p = heappushpop(proc_pq, requeue)[1]
                    requeue = None
                elif proc_pq:
                    best_p = heappop(proc_pq)[1]
                else:
                    _stalled(left)
                h = heaps[best_p]
                # Drop stale heads so emptiness is accurate.
                while h and h[0][-1] != version[h[0][-2]]:
                    heappop(h)
                if h:
                    break
                # Only stale entries: dormant until the next push wakes it.
                in_pq[best_p] = False
            i = heappop(h)[-2]
            remaining[i] = -1
        # Earliest start: processor idle time vs latest data arrival.
        est = idle[best_p]
        if arrival[i] > est:
            est = arrival[i]
        finish = idle[best_p] = est + weight[i]
        orders[best_p].append(i)

        # Slice-gate bookkeeping.
        if lvl is not None:
            todo, k = left_at[best_p], step[best_p]
            todo[k] -= 1
            if not todo[k]:
                k = step[best_p] = k + 1
                if k < len(todo):
                    # Unpark the tasks whose level became current (the
                    # processor is already marked queued).
                    min_level[best_p] = m = steps[best_p][k]
                    pk, h = parked[best_p], heaps[best_p]
                    while pk and pk[0][0] <= m:
                        j = heappop(pk)[2]
                        heappush(h, (keys[j], counter, j) if static
                                 else key(j) + (counter, j, version[j]))
                        counter += 1

        # Arrivals and ready-set updates.
        for s, nb in succ[i]:
            arr = finish
            q = proc[s]
            if q != best_p:
                arr += lat + nb * bt if nb >= 0 else lat
            if arr > arrival[s]:
                arrival[s] = arr
            r = remaining[s] = remaining[s] - 1
            if r:
                continue
            if lvl is not None and lvl[s] > min_level[q]:
                heappush(parked[q], (lvl[s], counter, s))
            else:
                # A task's first push carries version 0.
                heappush(heaps[q], (keys[s], counter, s) if static
                         else key(s) + (counter, s, 0))
                if not in_pq[q]:
                    in_pq[q] = True
                    heappush(proc_pq, (idle[q], q))
            counter += 1

        # Priority refreshes from the policy: a ready, unparked task
        # gets a new entry (a parked one is keyed when it is unparked).
        if not static:
            for k in scheduled(i, best_p):
                if remaining[k]:  # not ready, or already scheduled
                    continue
                q = proc[k]
                if lvl is not None and lvl[k] > min_level[q]:
                    continue
                version[k] = v = version[k] + 1
                heappush(heaps[q], key(k) + (counter, k, v))
                counter += 1
                if not in_pq[q]:
                    in_pq[q] = True
                    heappush(proc_pq, (idle[q], q))

        # Requeue the chosen processor (at its new idle time) while it
        # still has queued entries.
        if heaps[best_p]:
            requeue = (idle[best_p], best_p)
        else:
            requeue = None
            in_pq[best_p] = False

    # Every task was placed once, on its own processor: the orders are
    # structurally valid by construction.
    return Schedule(
        graph=graph,
        placement=placement,
        assignment=dict(assignment),
        orders=[[names[i] for i in order] for order in orders],
        meta=dict(meta or {}),
    )


def _stalled(left: int) -> NoReturn:
    raise SchedulingError(
        f"list scheduler stalled with {left} tasks left "
        "(inconsistent levels or assignment)"
    )


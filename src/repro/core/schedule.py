"""Static schedules and their predicted timing (Gantt charts).

A *static schedule* (Definition 1) is a task -> processor assignment plus
an execution order of the tasks on each processor.  Its predicted
parallel time uses the macro-dataflow model of the paper's worked
example (Figure 2): a task starts once its processor is free and all its
input data has arrived; messages travel asynchronously and cost
``latency + size * byte_time`` (one unit in the worked examples); the
sending processor is not blocked.

Definition 1's *combined graph* is the task DAG plus the implicit
sequence edges along each processor's order.  A schedule is *valid*
exactly when it is acyclic, and then any linearization of it computes
the same values (section 3.4).  :func:`combined_walk` is the one walk
of that graph: :func:`gantt` times tasks in its order,
:func:`repro.rapid.executor.global_order` returns the order, and the
static analyzer's order-cycle finding (``SA304``) reads the tasks it
never reaches.

:func:`number_schedule` is the one structural check, and every consumer
reads its numbering: a malformed schedule raises one error everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..errors import SchedulingError
from ..graph.taskgraph import TaskGraph
from .index import graph_index
from .placement import Placement

if TYPE_CHECKING:
    from .index import GraphIndex, MappingIndex


@dataclass(frozen=True)
class CommModel:
    """Linear communication cost model for schedule prediction.

    ``cost(bytes) = latency + bytes * byte_time`` for data-carrying
    edges; synchronisation edges cost ``latency`` alone.  The defaults
    reproduce the unit-cost model of the paper's Figure 2 ("each task and
    each message cost one unit of time").
    """

    latency: float = 1.0
    byte_time: float = 0.0

    def __post_init__(self) -> None:
        # Non-negative finite costs keep every data arrival at or after
        # its producer's finish (the list scheduler relies on it).
        for name in ("latency", "byte_time"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise SchedulingError(
                    f"CommModel.{name} = {value!r}: must be finite and >= 0"
                )

    def cost(self, nbytes: int) -> float:
        return self.latency + nbytes * self.byte_time


#: The unit-cost model of the worked examples.
UNIT_COMM = CommModel(latency=1.0, byte_time=0.0)


@dataclass
class Schedule:
    """A static schedule: assignment + per-processor task orders.

    Attributes
    ----------
    graph:
        The scheduled task graph.
    placement:
        Object ownership (Definition 1).
    assignment:
        Task name -> processor.
    orders:
        ``orders[p]`` lists the tasks of processor ``p`` in execution
        order.
    """

    graph: TaskGraph
    placement: Placement
    assignment: dict[str, int]
    orders: list[list[str]]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.orders) != self.placement.num_procs:
            raise SchedulingError(
                f"{len(self.orders)} order lists for {self.placement.num_procs} processors"
            )

    @property
    def num_procs(self) -> int:
        return self.placement.num_procs

    def processor_of(self, task: str) -> int:
        return self.assignment[task]

    def position(self) -> dict[str, int]:
        """Task -> index within its processor's order."""
        pos: dict[str, int] = {}
        for order in self.orders:
            for i, t in enumerate(order):
                pos[t] = i
        return pos

    def validate(self) -> None:
        """Structural validation (:func:`number_schedule`).  (Precedence
        validity is checked by :func:`gantt`.)"""
        number_schedule(self)


def number_schedule(
    schedule: Schedule,
) -> tuple["GraphIndex", "MappingIndex", list[int], list[int]]:
    """``(gi, mi, tid_at, proc_start)``: the graph's and mapping's
    indexes (the latter checks the assignment) and
    :func:`number_orders` of the orders, which checks them."""
    gi = graph_index(schedule.graph)
    mi = gi.mapping(schedule.placement, schedule.assignment)
    return (gi, mi, *number_orders(gi, mi.proc, schedule.orders))


def number_orders(
    gi: "GraphIndex", proc: Sequence, orders: Sequence[Sequence[str]]
) -> tuple[list[int], list[int]]:
    """Check that ``orders`` partition the tasks of ``gi`` and put every
    task on its processor ``proc[id]``, numbering them on the way.

    Returns ``(tid_at, proc_start)``: ``tid_at[pos]`` is the
    :class:`~repro.core.index.GraphIndex` id of the task at position
    ``pos`` of the flattened orders and ``proc_start[q]`` the first
    position of processor ``q`` (one sentinel at the end).  Raises
    :class:`~repro.errors.SchedulingError` for an unknown, duplicated,
    misplaced or missing task.
    """
    tid = gi.tid
    tid_at: list[int] = []
    proc_start = [0]
    seen = bytearray(len(gi.names))
    for p, order in enumerate(orders):
        for t in order:
            i = tid.get(t)
            if i is None:
                raise SchedulingError(f"order of P{p} contains unknown task {t!r}")
            if seen[i]:
                raise SchedulingError(f"task {t!r} appears on two processors")
            if proc[i] != p:
                raise SchedulingError(
                    f"task {t!r} ordered on P{p} but assigned to P{proc[i]}"
                )
            seen[i] = 1
            tid_at.append(i)
        proc_start.append(len(tid_at))
    if len(tid_at) != len(gi.names):
        missing = [t for t, s in zip(gi.names, seen) if not s]
        raise SchedulingError(f"schedule misses tasks: {missing[:5]}...")
    return tid_at, proc_start


@dataclass
class GanttChart:
    """Predicted start/finish times of a schedule."""

    schedule: Schedule
    start: dict[str, float]
    finish: dict[str, float]

    @property
    def makespan(self) -> float:
        """The predicted parallel time ``PT``."""
        return max(self.finish.values(), default=0.0)

    def busy_time(self, proc: int) -> float:
        return sum(
            self.schedule.graph.task(t).weight for t in self.schedule.orders[proc]
        )

    def utilization(self) -> float:
        """Average fraction of time processors spend computing."""
        ms = self.makespan
        if ms <= 0:
            return 1.0
        p = self.schedule.num_procs
        return sum(self.busy_time(q) for q in range(p)) / (p * ms)

    def as_ascii(self, width: int = 72, unit: float | None = None) -> str:
        """Render the chart like Figure 2 of the paper (one row per
        processor, task names placed at their start slots)."""
        ms = self.makespan
        if ms <= 0:
            return "(empty schedule)"
        scale = (width / ms) if unit is None else (1.0 / unit)
        rows = []
        for p, order in enumerate(self.schedule.orders):
            cells: list[str] = []
            cursor = 0
            for t in order:
                col = int(self.start[t] * scale)
                if col > cursor:
                    cells.append(" " * (col - cursor))
                    cursor = col
                label = f"[{t}]"
                cells.append(label)
                cursor += len(label)
            rows.append(f"P{p}: " + "".join(cells))
        rows.append(f"PT = {ms:g}")
        return "\n".join(rows)


def combined_walk(
    gi: "GraphIndex", tid_at: Sequence[int], proc_start: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """Kahn walk of the combined graph of Definition 1.

    The graph is the dependence DAG of ``gi`` plus one sequence edge per
    consecutive pair of the orders as :func:`number_orders` numbers
    them.  A sequence edge that duplicates a dependence edge is
    skipped: the dependence edge already orders the pair.  The walk is FIFO: free tasks start in id
    order, and each walked task frees its dependence successors (graph
    order), then its sequence successor.

    Returns ``(walk, unreached, seq)``: the walked ids in walk order;
    the ids never reached, in id order (empty exactly when the combined
    graph is acyclic, and the same for any walk order); and ``seq[i]``,
    the kept sequence successor of ``i`` or ``-1``.
    """
    succ = gi.succ
    n = len(gi.names)
    indeg = list(gi.in_degree)
    seq = [-1] * n
    for lo, hi in zip(proc_start, proc_start[1:]):
        for u, v in zip(tid_at[lo:hi], tid_at[lo + 1:hi]):
            for w, _ in succ[u]:  # each task heads one pair: O(edges)
                if w == v:
                    break
            else:
                seq[u] = v
                indeg[v] += 1
    walk = [i for i in range(n) if not indeg[i]]
    for u in walk:  # FIFO: tasks freed on the way join the end
        for v, _ in succ[u]:
            indeg[v] -= 1
            if not indeg[v]:
                walk.append(v)
        v = seq[u]
        if v >= 0:
            indeg[v] -= 1
            if not indeg[v]:
                walk.append(v)
    return walk, [i for i in range(n) if indeg[i]], seq


def gantt(schedule: Schedule, comm: CommModel = UNIT_COMM) -> GanttChart:
    """Compute predicted start/finish times under the macro-dataflow
    model.

    Times the tasks in :func:`combined_walk` order: a task starts once
    its sequence predecessor has finished and its inputs have arrived.
    Times depend only on the finished predecessors, so any walk order
    gives the same chart; a skipped duplicate sequence edge changes
    nothing either, because a dependence arrival is never before its
    producer's finish (costs are non-negative).  Raises
    :class:`~repro.errors.SchedulingError` for a malformed schedule
    (:func:`number_schedule`) and when the per-processor orders are
    inconsistent with the dependence DAG (the combined graph has a
    cycle).
    """
    gi, mi, tid_at, proc_start = number_schedule(schedule)
    names, pred, weight, proc = gi.names, gi.pred, gi.weight, mi.proc
    lat, bt = comm.latency, comm.byte_time
    walk, unreached, seq = combined_walk(gi, tid_at, proc_start)
    if unreached:
        stuck = [names[i] for i in unreached[:5]]
        raise SchedulingError(
            f"schedule order conflicts with dependencies; stuck tasks: {stuck}"
        )
    n = len(names)
    start = [0.0] * n  # the sequence predecessor's finish until timed
    fin = [0.0] * n
    for u in walk:
        pu = proc[u]
        s = start[u]
        for j, nb in pred[u]:
            arr = fin[j]
            if proc[j] != pu:
                arr += lat + nb * bt if nb >= 0 else lat
            if arr > s:
                s = arr
        start[u] = s
        fin[u] = f = s + weight[u]
        v = seq[u]
        if v >= 0:
            start[v] = f
    return GanttChart(schedule, dict(zip(names, start)), dict(zip(names, fin)))


def serial_schedule(graph: TaskGraph, order: Sequence[str] | None = None) -> Schedule:
    """A one-processor schedule (the sequential execution)."""
    seq = list(order) if order is not None else graph.topological_order()
    placement = Placement(1, {o.name: 0 for o in graph.objects()})
    return Schedule(graph, placement, {t: 0 for t in seq}, [seq])

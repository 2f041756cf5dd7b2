"""Frozen reference walks of Definition 1's combined graph and of the
deadlock witnesses: ``gantt``, ``global_order``, the ``SA304`` finding
(``_order_cycle_finding`` with its ``_task_cycle`` search), the
``SA301`` ``_witness``, ``find_cycle`` and ``deadlock_witness``, as they
stood when each module walked the graph, searched for a cycle and wrote
its ``wait-for:``/``cycle:`` lines in its own loop, before
:func:`repro.core.schedule.combined_walk`, :func:`repro.core.dcg.find_cycle`
and :func:`repro.core.dcg.wait_for_lines` took those jobs over.

Kept verbatim apart from this docstring and the imports (four modules
sit side by side in one file).  Do not "fix" or speed this copy up: it
is the oracle the live code must equal, message text included.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Optional

from repro.analysis.diagnostics import Diagnostic
from repro.core.index import graph_index
from repro.core.schedule import UNIT_COMM, CommModel, GanttChart, Schedule
from repro.errors import DeadlockError, SchedulingError


def gantt(schedule: Schedule, comm: CommModel = UNIT_COMM) -> GanttChart:
    """Compute predicted start/finish times under the macro-dataflow
    model.

    A Kahn walk of the combined graph on the graph's shared
    :class:`~repro.core.index.GraphIndex`: dependence edges plus one
    sequence edge per consecutive pair of an order.  A sequence edge
    that duplicates a dependence edge is counted and released twice,
    which readies its task at the same point; times depend only on the
    finished predecessors, never on the walk order.  Raises
    :class:`~repro.errors.SchedulingError` when the per-processor
    orders are inconsistent with the dependence DAG (the combined graph
    has a cycle).
    """
    gi = graph_index(schedule.graph)
    tid, names, succ, pred, weight = gi.tid, gi.names, gi.succ, gi.pred, gi.weight
    lat, bt = comm.latency, comm.byte_time
    n = len(names)
    indeg = list(gi.in_degree)
    prev_on_proc = [-1] * n
    next_on_proc = [-1] * n
    for order in schedule.orders:
        prev = -1
        for t in order:
            i = tid.get(t)
            if i is None:
                raise SchedulingError(f"schedule orders unknown task {t!r}")
            if prev >= 0:
                prev_on_proc[i] = prev
                next_on_proc[prev] = i
                indeg[i] += 1
            prev = i

    assignment = schedule.assignment
    proc = [assignment[t] for t in names]
    start = [0.0] * n
    fin = [0.0] * n
    timed = 0
    ready: deque[int] = deque(i for i in range(n) if indeg[i] == 0)
    while ready:
        u = ready.popleft()
        pu = proc[u]
        prev = prev_on_proc[u]
        s = fin[prev] if prev >= 0 else 0.0
        for j, nb in pred[u]:
            arr = fin[j]
            if proc[j] != pu:
                arr += lat + nb * bt if nb >= 0 else lat
            if arr > s:
                s = arr
        start[u] = s
        fin[u] = s + weight[u]
        timed += 1
        for v, _ in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
        nxt = next_on_proc[u]
        if nxt >= 0:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    if timed != n:
        stuck = [t for t, d in zip(names, indeg) if d]
        raise SchedulingError(
            f"schedule order conflicts with dependencies; stuck tasks: {stuck[:5]}"
        )
    return GanttChart(schedule, dict(zip(names, start)), dict(zip(names, fin)))



def global_order(schedule: Schedule) -> list[str]:
    """A single global linearization consistent with a schedule.

    Merges the per-processor orders with the dependence edges (Kahn on
    the combined graph, FIFO among simultaneously-free tasks).  Raises
    when the schedule conflicts with the dependences.
    """
    g = schedule.graph
    indeg: dict[str, int] = {}
    prev: dict[str, str] = {}
    for order in schedule.orders:
        for i, t in enumerate(order):
            if i > 0:
                prev[t] = order[i - 1]
    for t in g.task_names:
        d = g.in_degree(t)
        p = prev.get(t)
        if p is not None and not g.has_edge(p, t):
            d += 1
        indeg[t] = d
    nxt: dict[str, str] = {v: k for k, v in prev.items()}
    ready = deque(t for t in g.task_names if indeg[t] == 0)
    out: list[str] = []
    while ready:
        u = ready.popleft()
        out.append(u)
        succs = list(g.successors(u))
        n = nxt.get(u)
        if n is not None and not g.has_edge(u, n):
            succs.append(n)
        for v in succs:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if len(out) != g.num_tasks:
        raise SchedulingError("schedule orders conflict with dependences")
    return out



def _order_cycle_finding(schedule):
    """Kahn over dependence + sequence edges, on the graph's shared
    :class:`~repro.core.index.GraphIndex` ids as
    :func:`repro.core.schedule.gantt` does; stuck tasks form cycles.

    Returns ``None`` for an acyclic combined graph, else the SA304
    diagnostic and its wait-for edges as ``(waiter, holder, why)``.  A
    sequence edge that duplicates a dependence edge is counted and
    released twice, which leaves the set of stuck tasks unchanged."""
    g = schedule.graph
    asg = schedule.assignment
    gi = graph_index(g)
    names, tid, succ = gi.names, gi.tid, gi.succ
    n = len(names)
    indeg = list(gi.in_degree)
    next_on_proc = [-1] * n
    for order in schedule.orders:
        prev = -1
        for t in order:
            i = tid.get(t)
            if i is None:
                raise SchedulingError(f"schedule orders unknown task {t!r}")
            if prev >= 0:
                next_on_proc[prev] = i
                indeg[i] += 1
            prev = i

    ready = [i for i in range(n) if indeg[i] == 0]
    done = 0
    while ready:
        u = ready.pop()
        done += 1
        for v, _ in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
        v = next_on_proc[u]
        if v >= 0:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if done == n:
        return None

    stuck = sorted(names[i] for i in range(n) if indeg[i] > 0)
    nxt = {names[u]: names[v] for u, v in enumerate(next_on_proc) if v >= 0}
    cycle = _task_cycle(g, set(stuck), nxt)
    shown = " -> ".join(cycle) if cycle else ", ".join(stuck[:5])
    diag = Diagnostic.of(
        "SA304",
        f"{len(stuck)} task(s) can never become ready; cycle: {shown}",
        task=stuck[0],
        proc=asg.get(stuck[0]),
    )
    # Each adjacency t_i -> t_{i+1} means t_{i+1} waits for t_i.
    waits = tuple(
        (asg[b], asg[a], f"task {b!r} ordered after {a!r}")
        for a, b in zip(cycle, cycle[1:])
    )
    return diag, waits


def _task_cycle(g, stuck: set, next_on_proc) -> list:
    """A cycle inside the stuck subgraph of the combined graph, as
    ``[t0, t1, ..., t0]``; DFS, mirrors ``find_cycle``."""

    def succs(u):
        out = [v for v in g.successors(u) if v in stuck]
        nxt = next_on_proc.get(u)
        if nxt is not None and nxt in stuck and nxt not in out:
            out.append(nxt)
        return out

    grey: set = set()
    black: set = set()
    stack: list = []

    def dfs(u) -> list:
        grey.add(u)
        stack.append(u)
        for v in succs(u):
            if v in grey:
                return stack[stack.index(v):] + [v]
            if v not in black:
                found = dfs(v)
                if found:
                    return found
        stack.pop()
        grey.discard(u)
        black.add(u)
        return []

    for t in sorted(stuck):
        if t not in black:
            found = dfs(t)
            if found:
                return found
    return []



def _witness(edges, group: list[int], cycle: list[int]) -> str:
    """Witness report in :func:`deadlock_witness`'s shape."""
    inside = set(group)
    lines = [
        "STATIC DEADLOCK: wait-for cycle over "
        + ", ".join(f"P{q}" for q in group)
    ]
    for (a, b), reasons in sorted(edges.items()):
        if a in inside and b in inside:
            for why in reasons:
                lines.append(f"  P{a}: waits for P{b} ({why})")
    waits: dict[int, set[int]] = {}
    for (a, b) in edges:
        if a in inside and b in inside:
            waits.setdefault(a, set()).add(b)
    for q in sorted(waits):
        deps = ", ".join(f"P{d}" for d in sorted(waits[q]))
        lines.append(f"  wait-for: P{q} -> {{{deps}}}")
    lines.append("  cycle: " + " -> ".join(f"P{q}" for q in cycle))
    return "\n".join(lines)



def find_cycle(wait_for: Mapping[int, Iterable[int]]) -> Optional[list[int]]:
    """A cycle in the wait-for graph, as ``[p0, p1, ..., p0]``;
    ``None`` when the graph is acyclic."""
    graph = {p: sorted(set(deps)) for p, deps in wait_for.items()}
    WHITE, GREY, BLACK = 0, 1, 2
    color: dict[int, int] = dict.fromkeys(graph, WHITE)
    stack: list[int] = []

    def dfs(u: int) -> Optional[list[int]]:
        color[u] = GREY
        stack.append(u)
        for v in graph.get(u, ()):
            if color.get(v, WHITE) == GREY:
                i = stack.index(v)
                return stack[i:] + [v]
            if color.get(v, WHITE) == WHITE and v in graph:
                found = dfs(v)
                if found:
                    return found
        stack.pop()
        color[u] = BLACK
        return None

    for p in graph:
        if color[p] == WHITE:
            found = dfs(p)
            if found:
                return found
    return None



def deadlock_witness(err: DeadlockError) -> str:
    """Render a :class:`~repro.errors.DeadlockError` as a witness report:
    blocked states, per-processor diagnosis and — when the simulator
    attached structured wait-for edges — the blocking cycle."""
    lines = [
        f"DEADLOCK: {err.completed}/{err.total} tasks completed; "
        f"blocked: "
        + ", ".join(f"P{p}:{s}" for p, s in sorted(err.blocked.items()))
    ]
    details = getattr(err, "details", None) or {}
    for q in sorted(details):
        lines.append(f"  P{q}: {details[q]}")
    wait_for = getattr(err, "wait_for", None)
    if wait_for:
        for q in sorted(wait_for):
            deps = ", ".join(f"P{d}" for d in sorted(set(wait_for[q])))
            lines.append(f"  wait-for: P{q} -> {{{deps or '-'}}}")
        cycle = find_cycle(wait_for)
        if cycle:
            lines.append(
                "  cycle: " + " -> ".join(f"P{p}" for p in cycle)
            )
        else:
            lines.append(
                "  no wait-for cycle: progress is blocked by lost or "
                "never-produced events (e.g. an overwritten address slot)"
            )
    return "\n".join(lines)

"""Data Connection Graph (DCG) and computation slices (section 4.2).

DTS slices the computation by data-access pattern.  The DCG has one node
per data object and a directed edge ``d_i -> d_j`` whenever a task
associated with ``d_i`` precedes (in the task DAG) a task associated
with ``d_j``.  Association rules from the paper:

* a task that *uses but does not modify* ``d_i`` is associated with
  ``d_i`` (so a task is associated with every object it reads without
  writing);
* a task that *only modifies* ``d_i`` *and does not use any other
  objects* is associated with ``d_i`` (covers pure producers and
  read-modify-write tasks touching a single object);
* a task associated with multiple data nodes makes them mutually
  strongly connected (doubly directed edges).

Strongly connected components of the DCG become *slices*; the
condensation is a DAG whose topological order is the slice order.  Each
task lies in exactly one component (all its associated nodes are, by
construction, in the same SCC).  Objects associated with no task are
isolated in the DCG and yield no slice — matching Figure 5, where only
7 of the 11 objects appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..errors import SchedulingError
from ..graph.builder import is_source_task
from ..graph.taskgraph import TaskGraph
from .index import MappingIndex, graph_index, mapping_index
from .placement import Placement


def task_association(graph: TaskGraph, task: str) -> tuple[str, ...]:
    """Data nodes a task is associated with under the DCG rules.

    Implicit source tasks (initial-data loads materialised by the
    builder) are associated with nothing: they are zero-weight and run
    on the owner, so tying them to a data node would thread artificial
    temporal edges through the DCG — e.g. the 1-D LU graphs would lose
    the acyclicity that Corollary 2 proves.  They land in the first
    slice instead.
    """
    if is_source_task(task):
        return ()
    t = graph.task(task)
    ro = t.read_only
    if ro:
        return ro
    # No read-only objects: associate with the written object(s); this
    # covers ``T[j]`` pure producers and read-modify-write tasks whose
    # only input is the object they update.
    if t.writes:
        return t.writes
    if t.reads:  # read-only task reading objects it also ... cannot happen
        return t.reads
    return ()


@dataclass
class DCG:
    """The data connection graph and its SCC condensation."""

    graph: TaskGraph
    #: adjacency over object names
    succ: dict[str, set[str]] = field(default_factory=dict)
    #: object -> SCC id (only for objects that appear in the DCG)
    component: dict[str, int] = field(default_factory=dict)
    #: SCC id (dense, in topological order) -> member objects
    comp_objects: list[list[str]] = field(default_factory=list)
    #: SCC id -> tasks associated with the component
    comp_tasks: list[list[str]] = field(default_factory=list)

    @property
    def num_slices(self) -> int:
        return len(self.comp_tasks)

    def slice_of(self) -> dict[str, int]:
        """Task -> slice index (topological slice order)."""
        out: dict[str, int] = {}
        for s, tasks in enumerate(self.comp_tasks):
            for t in tasks:
                out[t] = s
        return out

    def is_acyclic(self) -> bool:
        """True when every SCC is a single node (Corollary 1's case)."""
        return all(len(objs) == 1 for objs in self.comp_objects)


def build_dcg(graph: TaskGraph) -> DCG:
    """Construct the DCG of a task graph and slice it by SCCs."""
    assoc: dict[str, tuple[str, ...]] = {}
    nodes: set[str] = set()
    succ: dict[str, set[str]] = {}

    def link(a: str, b: str) -> None:
        if a != b:
            succ.setdefault(a, set()).add(b)

    for t in graph.tasks():
        a = task_association(graph, t.name)
        assoc[t.name] = a
        nodes.update(a)
        # Rule 2: multiple associated nodes become strongly connected.
        for x in a:
            for y in a:
                link(x, y)
    # Rule 3: temporal order of data accessing along task dependences.
    for u, v, _objs in graph.edges():
        for x in assoc[u]:
            for y in assoc[v]:
                link(x, y)
    # Sorted so the DCG (and every downstream slice order) is independent
    # of the process hash seed — DTS schedules must be reproducible.
    for n in sorted(nodes):
        succ.setdefault(n, set())

    comp = tarjan_scc(succ)
    # Condensation + topological order of components.
    ncomp = max(comp.values(), default=-1) + 1
    cond_succ: list[set[int]] = [set() for _ in range(ncomp)]
    indeg = [0] * ncomp
    for a, outs in succ.items():
        ca = comp[a]
        for b in outs:
            cb = comp[b]
            if ca != cb and cb not in cond_succ[ca]:
                cond_succ[ca].add(cb)
                indeg[cb] += 1
    order: list[int] = []
    stack = [c for c in range(ncomp) if indeg[c] == 0]
    while stack:
        c = stack.pop()
        order.append(c)
        for d in cond_succ[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                stack.append(d)
    if len(order) != ncomp:
        raise SchedulingError("DCG condensation is not acyclic (SCC bug)")

    # Group tasks per component; drop empty components, renumber densely
    # in topological order.
    tasks_by_comp: dict[int, list[str]] = {}
    for t in graph.task_names:
        a = assoc[t]
        if not a:
            continue
        cids = {comp[x] for x in a}
        if len(cids) != 1:
            raise SchedulingError(
                f"task {t!r} associated with several components {sorted(cids)}"
            )
        tasks_by_comp.setdefault(cids.pop(), []).append(t)

    comp_objects: list[list[str]] = []
    comp_tasks: list[list[str]] = []
    remap: dict[int, int] = {}
    objs_by_comp: dict[int, list[str]] = {}
    for o, c in comp.items():
        objs_by_comp.setdefault(c, []).append(o)
    for c in order:
        if c in tasks_by_comp:
            remap[c] = len(comp_tasks)
            comp_objects.append(sorted(objs_by_comp.get(c, [])))
            comp_tasks.append(tasks_by_comp[c])

    component = {o: remap[c] for o, c in comp.items() if c in remap}
    dcg = DCG(
        graph=graph,
        succ=succ,
        component=component,
        comp_objects=comp_objects,
        comp_tasks=comp_tasks,
    )
    # Tasks with no association (no reads, no writes) default to slice 0;
    # such tasks have no data footprint so any slice is safe.
    if any(not assoc[t] for t in graph.task_names) and not comp_tasks:
        dcg.comp_objects.append([])
        dcg.comp_tasks.append([t for t in graph.task_names if not assoc[t]])
    elif any(not assoc[t] for t in graph.task_names):
        dcg.comp_tasks[0] = [t for t in graph.task_names if not assoc[t]] + dcg.comp_tasks[0]
    return dcg


def shared_dcg(graph: TaskGraph) -> DCG:
    """:func:`build_dcg` memoised on the graph's
    :class:`~repro.core.index.GraphIndex`: the DCG depends on the graph
    alone, so every DTS schedule of one frozen graph shares it.  The
    returned lists and sets are shared; treat them as read-only."""

    def build() -> tuple:
        dcg = build_dcg(graph)
        # Cached without the graph: the index must not hold its key.
        return dcg.succ, dcg.component, dcg.comp_objects, dcg.comp_tasks

    return DCG(graph, *graph_index(graph).memo("dcg", build))


def tarjan_scc(succ: Mapping[str, set[str]]) -> dict[str, int]:
    """Iterative Tarjan SCC; returns node -> component id (ids are in
    *reverse* topological order of discovery, remapped by the caller).

    Shared SCC machinery: the DCG slicer condenses object graphs with
    it, and the static protocol analyzer runs it over processor
    wait-for graphs to extract deadlock cycles (Theorem 1).  Nodes only
    need to be sortable (strings or ints)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    comp: dict[str, int] = {}
    counter = 0
    ncomp = 0
    for root in succ:
        if root in index:
            continue
        work: list[tuple[str, list[str]]] = [(root, sorted(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            if children:
                child = children.pop()
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, sorted(succ[child])))
                elif child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp[w] = ncomp
                        if w == node:
                            break
                    ncomp += 1
    return comp


# ----------------------------------------------------------------------
# slice volatile-space requirements (Definition 7)
# ----------------------------------------------------------------------


def slice_volatile_space(
    dcg: DCG,
    placement: Placement,
    assignment: Mapping[str, int],
) -> list[int]:
    """``H(R, L)`` for every slice: the maximum over processors of the
    volatile space needed to execute the slice's tasks (Definition 7)."""
    return mapping_slice_space(dcg, mapping_index(dcg.graph, placement, assignment))


def mapping_slice_space(dcg: DCG, mi: MappingIndex) -> list[int]:
    """:func:`slice_volatile_space` on the mapping index ``mi`` of the
    DCG's graph, in volatile object ids."""
    gi = graph_index(dcg.graph)
    tid, size, rows, proc = gi.tid, gi.oid_size, mi.vola_oids, mi.proc
    out: list[int] = []
    for tasks in dcg.comp_tasks:
        per_proc: dict[int, set[int]] = {}
        for t in tasks:
            i = tid[t]
            per_proc.setdefault(proc[i], set()).update(rows[i])
        out.append(max(
            (sum([size[o] for o in objs]) for objs in per_proc.values()),
            default=0,
        ))
    return out

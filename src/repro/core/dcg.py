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
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence, TypeVar

import numpy as np

from ..errors import SchedulingError
from ..graph.builder import is_source_task
from ..graph.taskgraph import TaskGraph
from ..graph.tasks import Task
from .index import MappingIndex, graph_index, mapping_index
from .placement import Placement

T = TypeVar("T")


def task_association(graph: TaskGraph, task: str) -> tuple[str, ...]:
    """Data nodes a task is associated with under the DCG rules.

    Implicit source tasks (initial-data loads materialised by the
    builder) are associated with nothing: they are zero-weight and run
    on the owner, so tying them to a data node would thread artificial
    temporal edges through the DCG — e.g. the 1-D LU graphs would lose
    the acyclicity that Corollary 2 proves.  They land in the first
    slice instead.
    """
    return _association(graph.task(task))


def _association(t: Task) -> tuple[str, ...]:
    if is_source_task(t.name):
        return ()
    # Read-only objects, else the written object(s): the latter covers
    # ``T[j]`` pure producers and read-modify-write tasks whose only
    # input is the object they update.
    w = t.writes
    return tuple([o for o in t.reads if o not in w]) or w


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


def _links(a_ptr, a_len, a_oid, src, dst, nobj: int):
    """Link keys ``x * nobj + y`` for every ``x`` associated with
    ``src[k]`` and ``y != x`` with ``dst[k]``, in ``k`` order, then
    ``x``-major association order (the order of ``for x in assoc[src]:
    for y in assoc[dst]``)."""
    count = a_len[src] * a_len[dst]
    j = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    width = np.repeat(a_len[dst], count)
    x = a_oid[np.repeat(a_ptr[src], count) + j // width]
    y = a_oid[np.repeat(a_ptr[dst], count) + j % width]
    return (x * nobj + y)[x != y]


def _association_csr(graph: TaskGraph, gi):
    """Every task's associated object ids as a CSR: ``(a_ptr, a_len,
    a_oid)``."""
    assoc = [_association(t) for t in graph.tasks()]
    n = len(assoc)
    a_len = np.fromiter(map(len, assoc), np.int64, n)
    a_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(a_len, out=a_ptr[1:])
    a_oid = np.fromiter(map(gi.oid.__getitem__, chain.from_iterable(assoc)),
                        np.int64, int(a_ptr[-1]))
    return a_ptr, a_len, a_oid


def _adjacency(gi, a_ptr, a_len, a_oid):
    """The DCG's nodes in order — each where it first links out, then
    the others sorted, so the DCG and every downstream slice order are
    independent of the process hash seed (DTS schedules must be
    reproducible) — and its deduplicated link keys ``x * nobj + y``,
    sorted."""
    nobj = len(gi.object_names)
    # Rule 2: multiple associated nodes become strongly connected.
    # Rule 3: temporal order of data accessing along task dependences.
    every = np.arange(len(a_len))
    keys = np.concatenate((
        _links(a_ptr, a_len, a_oid, every, every, nobj),
        _links(a_ptr, a_len, a_oid, gi.edge_u, gi.edge_v, nobj),
    ))
    x = keys // nobj
    _, first = np.unique(x, return_index=True)
    linked = x[np.sort(first)]
    return np.concatenate((linked, np.setdiff1d(a_oid, linked))), np.unique(keys)


def _component_order(comp_of, ncomp: int, nodes, src, dst) -> list[int]:
    """Topological order of the SCC condensation.  Its edges enter each
    component's successor set in node order, then ascending object id
    (the set's iteration order depends on insertion order)."""
    pos = np.zeros(len(comp_of), dtype=np.int64)
    pos[nodes] = np.arange(len(nodes))
    walk = np.lexsort((dst, pos[src]))
    ca, cb = comp_of[src[walk]], comp_of[dst[walk]]
    between = ca != cb
    ca, cb = ca[between], cb[between]
    _, first = np.unique(ca * ncomp + cb, return_index=True)
    first.sort()
    cond_succ: list[set[int]] = [set() for _ in range(ncomp)]
    for a, b in zip(ca[first].tolist(), cb[first].tolist()):
        cond_succ[a].add(b)
    indeg = np.bincount(cb[first], minlength=ncomp).tolist()
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
    return order


def _components(graph: TaskGraph, gi):
    """The DCG in ids: ``(succ, comp, order, tasks_by_comp, loose)`` —
    the out-links of each node in node order, Tarjan's component of each
    node, the components in topological order, each component's task
    ids and the tasks associated with no node."""
    nobj = len(gi.object_names)
    a_ptr, a_len, a_oid = _association_csr(graph, gi)
    nodes, links = _adjacency(gi, a_ptr, a_len, a_oid)
    src, dst = links // nobj, links % nobj
    bounds = np.searchsorted(src, np.arange(nobj + 1)).tolist()
    dst_l = np.arange(nobj, dtype=object)[dst].tolist()  # one int per oid
    succ = {o: dst_l[bounds[o]:bounds[o + 1]] for o in nodes.tolist()}

    comp = tarjan_scc(succ)
    comp_of = np.full(max(nobj, 1), -1, dtype=np.int64)
    comp_of[list(comp)] = list(comp.values())
    order = _component_order(comp_of, len(comp) and max(comp.values()) + 1,
                             nodes, src, dst)

    # Group tasks per component (all of a task's nodes must share one).
    a_comp = comp_of[a_oid]
    tied = a_len > 0
    t_comp = a_comp[a_ptr[:-1][tied]]
    split = np.flatnonzero(a_comp != np.repeat(t_comp, a_len[tied]))
    if len(split):
        t = int(np.searchsorted(a_ptr, split[0], side="right")) - 1
        raise SchedulingError(
            f"task {gi.names[t]!r} associated with several components "
            f"{sorted(set(a_comp[a_ptr[t]:a_ptr[t + 1]].tolist()))}"
        )
    tasks_by_comp: dict[int, list[int]] = {}
    for t, c in zip(np.flatnonzero(tied).tolist(), t_comp.tolist()):
        tasks_by_comp.setdefault(c, []).append(t)
    return succ, comp, order, tasks_by_comp, np.flatnonzero(~tied).tolist()


def build_dcg(graph: TaskGraph) -> DCG:
    """Construct the DCG of a task graph and slice it by SCCs.

    Works in the graph index's task and object ids: the links of rules
    2 and 3 are deduplicated int pairs, and Tarjan runs on object ids.
    Object ids follow sorted names, so every walk in ascending ids is a
    walk in sorted names; the returned :class:`DCG` is keyed by name."""
    gi = graph_index(graph)
    names, obj_name = gi.names, gi.object_names
    succ, comp, order, tasks_by_comp, loose = _components(graph, gi)

    # Drop empty components, renumber densely in topological order.
    comp_objects: list[list[str]] = []
    comp_tasks: list[list[str]] = []
    remap: dict[int, int] = {}
    objs_by_comp: dict[int, list[int]] = {}
    for o, c in comp.items():
        objs_by_comp.setdefault(c, []).append(o)
    for c in order:
        if c in tasks_by_comp:
            remap[c] = len(comp_tasks)
            comp_objects.append(
                [obj_name[o] for o in sorted(objs_by_comp.get(c, []))])
            comp_tasks.append([names[t] for t in tasks_by_comp[c]])

    dcg = DCG(
        graph=graph,
        succ={obj_name[a]: {obj_name[b] for b in outs}
              for a, outs in succ.items()},
        component={obj_name[o]: remap[c] for o, c in comp.items()
                   if c in remap},
        comp_objects=comp_objects,
        comp_tasks=comp_tasks,
    )
    # Tasks with no association (no reads, no writes) default to slice 0;
    # such tasks have no data footprint so any slice is safe.
    loose_names = [names[t] for t in loose]
    if loose_names and not comp_tasks:
        dcg.comp_objects.append([])
        dcg.comp_tasks.append(loose_names)
    elif loose_names:
        dcg.comp_tasks[0] = loose_names + dcg.comp_tasks[0]
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


def tarjan_scc(succ: Mapping[T, Iterable[T]]) -> dict[T, int]:
    """Iterative Tarjan SCC; returns node -> component id (ids are in
    *reverse* topological order of discovery, remapped by the caller).

    Shared SCC machinery: the DCG slicer condenses object graphs with
    it, and the static protocol analyzer runs it over processor
    wait-for graphs to extract deadlock cycles (Theorem 1).  Nodes only
    need to be sortable (strings or ints)."""
    index: dict[T, int] = {}
    low: dict[T, int] = {}
    on_stack: set[T] = set()
    stack: list[T] = []
    comp: dict[T, int] = {}
    counter = 0
    ncomp = 0
    for root in succ:
        if root in index:
            continue
        work: list[tuple[T, list[T]]] = [(root, sorted(succ[root]))]
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
                elif child in on_stack and index[child] < low[node]:
                    low[node] = index[child]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp[w] = ncomp
                        if w == node:
                            break
                    ncomp += 1
    return comp


def find_cycle(succ: Mapping[T, Iterable[T]]) -> Optional[list[T]]:
    """The first cycle a depth-first search finds, as ``[n0, ..., n0]``;
    ``None`` when the graph is acyclic.

    Roots are tried in ``succ``'s key order and each node's successors
    in the order given; a successor that is not a key is ignored.  The
    static order-cycle finding (``SA304``) and the dynamic deadlock
    witness (:func:`repro.conformance.find_cycle`) both name their cycle
    with it."""
    state: dict[T, bool] = {}  # True while on the path, False when done
    for root in succ:
        if root in state:
            continue
        state[root] = True
        path = [root]
        work = [iter(succ[root])]
        while work:
            for v in work[-1]:
                on_path = state.get(v)
                if on_path:
                    return path[path.index(v):] + [v]
                if on_path is None and v in succ:
                    state[v] = True
                    path.append(v)
                    work.append(iter(succ[v]))
                    break
            else:
                work.pop()
                state[path.pop()] = False
    return None


def wait_for_lines(
    wait_for: Mapping[int, Iterable[int]], cycle: Optional[Sequence[int]]
) -> list[str]:
    """The ``wait-for:`` lines of a processor wait-for graph, then the
    ``cycle:`` line when there is a cycle: the one rendering the static
    ``SA301`` witness and the dynamic deadlock witness share."""
    lines = []
    for q in sorted(wait_for):
        deps = ", ".join(f"P{d}" for d in sorted(set(wait_for[q])))
        lines.append(f"  wait-for: P{q} -> {{{deps or '-'}}}")
    if cycle:
        lines.append("  cycle: " + " -> ".join(f"P{q}" for q in cycle))
    return lines


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

"""Frozen reference DCG: the name-keyed ``repro.core.dcg.build_dcg`` and
``task_association`` as they stood before the DCG worked in task and
object ids — association tuples of object names, rules 2 and 3 linked
one name pair at a time into a dict of name sets, Tarjan over names.

Kept verbatim apart from this docstring and one pin: the condensation
walks each node's successor set in sorted order, where the original
walked a set of names in hash order (salted per process; the id-space
DCG walks ascending object ids, which is sorted-name order).  Do not
"fix" or speed this copy up: it is the oracle.
"""

from __future__ import annotations

from repro.core.dcg import DCG, tarjan_scc
from repro.errors import SchedulingError
from repro.graph.builder import is_source_task
from repro.graph.taskgraph import TaskGraph


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


def reference_build_dcg(graph: TaskGraph) -> DCG:
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
        for b in sorted(outs):  # pinned: a set of names iterates by hash
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

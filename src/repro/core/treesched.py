"""Tree-specialised postorder ordering for elimination-tree graphs.

Elimination trees (and the column-level task graphs they induce) admit
much stronger ordering heuristics than general DAGs: a *postorder*
traversal keeps every processor working on one subtree at a time, so a
subtree's volatile objects die before the next subtree allocates.  The
child-ordering rule is Liu's classic minimum-memory traversal (visit
children in decreasing ``peak - net``), the same rule behind the
tree-scheduling results of Marchal, Sinnen & Vivien (2012).

The heuristic is defined on arbitrary DAGs: the "children" of a task are
its predecessors, the recursion treats every task once (shared
predecessors make the peak estimate approximate, which only affects tie
breaking), and the resulting global order is a topological order, so its
per-processor projection is always a valid schedule.  Two candidate
traversals are evaluated against the exact memory model
(:func:`~repro.core.liveness.analyze_memory`) and the macro-dataflow
timing model (:func:`~repro.core.schedule.gantt`), and the better one —
smaller peak first, then smaller makespan — is returned.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from ..graph.taskgraph import TaskGraph
from .index import graph_index
from .listsched import check_assignment
from .liveness import proc_liveness
from .placement import Placement
from .schedule import CommModel, Schedule, UNIT_COMM, gantt_times

if TYPE_CHECKING:
    from .index import GraphIndex, MappingIndex


def liu_postorder(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
) -> list[str]:
    """Global memory-guided postorder of ``graph`` (children = preds).

    For each task the traversal estimates ``net`` (volatile bytes its
    output keeps alive) and ``peak`` (volatile bytes the subtree rooted
    at it needs), then visits children in decreasing ``peak - net`` —
    Liu's rule: run the hungriest subtree while the least residue from
    siblings is held.  The returned list is a topological order.
    """
    gi = graph_index(graph)
    names = gi.names
    return [names[i] for i in _liu_ids(graph, gi, gi.mapping(placement, assignment))]


def _liu_ids(graph: TaskGraph, gi: "GraphIndex", mi: "MappingIndex") -> list[int]:
    """:func:`liu_postorder` in task ids, on the mapping index ``mi``."""
    pred, oid, size, rows = gi.pred, gi.oid, gi.oid_size, mi.vola_oids
    n = len(gi.names)
    # Output bytes of each task; a task's ``net`` is read only as a
    # child of a later task in topological order.
    net = [0] * n
    peak = [0] * n
    acc_b = [0] * n
    for i, t in enumerate(graph.tasks()):  # program order: task ids
        row = rows[i]
        if row:
            acc_b[i] = sum([size[o] for o in row])
            if t.writes:
                writes = {oid[m] for m in t.writes}
                net[i] = sum([size[o] for o in row if o in writes])
    kids: list[list[int]] = [[]] * n  # every entry replaced below
    for i in gi.topo:
        children = [
            c for _, c in sorted([(net[j] - peak[j], j) for j, _ in pred[i]])
        ]
        kids[i] = children
        run = 0
        pk = acc_b[i] + sum([net[c] for c in children])
        for c in children:
            pk = max(pk, run + peak[c])
            run += net[c]
        peak[i] = pk

    roots = [i for _, i in sorted(
        (net[i] - peak[i], i) for i in range(n) if not gi.succ[i])]
    order: list[int] = []
    seen = [False] * n
    for root in roots:
        if seen[root]:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        seen[root] = True
        while stack:
            node, i = stack[-1]
            cs = kids[node]
            while i < len(cs) and seen[cs[i]]:
                i += 1
            if i < len(cs):
                stack[-1] = (node, i + 1)
                child = cs[i]
                seen[child] = True
                stack.append((child, 0))
            else:
                stack.pop()
                order.append(node)
    return order


def tree_order(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    comm: CommModel = UNIT_COMM,
    meta: Optional[dict] = None,
) -> Schedule:
    """Tree-specialised postorder schedule (Liu child ordering).

    Evaluates the memory-guided postorder and the program-order
    traversal against the exact memory and timing models, returning the
    candidate with the smaller peak (ties: smaller makespan).  The
    winning traversal is recorded in ``meta["tree_variant"]``.  Raises
    :class:`~repro.errors.SchedulingError` when a task has no processor
    in ``[0, P)``.

    Both candidates are projected and scored in task ids (the cores of
    :func:`~repro.core.liveness.analyze_memory` and
    :func:`~repro.core.schedule.gantt`); only the winner becomes a
    :class:`~repro.core.schedule.Schedule`.
    """
    check_assignment(graph, placement, assignment)
    gi = graph_index(graph)
    mi = gi.mapping(placement, assignment)
    proc, nprocs = mi.proc, placement.num_procs
    best: Optional[tuple[tuple, str, list[list[int]]]] = None
    for variant, order in (
        ("liu-postorder", _liu_ids(graph, gi, mi)),
        ("program-order", gi.topo),
    ):
        # Per-processor projection of the global topological order.
        ids: list[list[int]] = [[] for _ in range(nprocs)]
        for i in order:
            ids[proc[i]].append(i)
        min_mem = max((
            max(proc_liveness(gi, mi, p, ids[p])[2], default=mi.perm_bytes[p])
            for p in range(nprocs)
        ), default=0)
        makespan = max(gantt_times(gi, proc, ids, comm)[1], default=0.0)
        key = (min_mem, makespan)
        if best is None or key < best[0]:
            best = (key, variant, ids)
    assert best is not None
    _key, variant, ids = best
    m = dict(meta or {})
    m.update({"heuristic": "TREE", "tree_variant": variant})
    names = gi.names
    # Projections of a topological order of every task: valid by
    # construction.
    return Schedule(
        graph=graph,
        placement=placement,
        assignment=dict(assignment),
        orders=[[names[i] for i in order] for order in ids],
        meta=m,
    )

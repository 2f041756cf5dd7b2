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

from typing import Mapping, Optional

from ..graph.taskgraph import TaskGraph
from .index import graph_index
from .listsched import check_assignment
from .liveness import analyze_memory
from .placement import Placement
from .schedule import CommModel, Schedule, UNIT_COMM, gantt


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
    names, pred, size = gi.names, gi.pred, gi.obj_size
    vola_acc = gi.mapping(placement, assignment).vola_acc
    n = len(names)
    net = [0] * n
    peak = [0] * n
    kids: list[list[int]] = [[] for _ in range(n)]

    def key(c: int) -> tuple[int, int]:
        return (net[c] - peak[c], c)

    for i in gi.topo:
        name = names[i]
        vola = vola_acc[name]
        writes = graph.task(name).writes
        out_b = sum(size[o] for o in vola if o in writes)
        acc_b = sum(size[o] for o in vola)
        children = sorted((j for j, _ in pred[i]), key=key)
        kids[i] = children
        run = 0
        pk = acc_b + sum(net[c] for c in children)
        for c in children:
            pk = max(pk, run + peak[c])
            run += net[c]
        net[i] = out_b
        peak[i] = pk

    roots = sorted((i for i in range(n) if not gi.succ[i]), key=key)
    order: list[str] = []
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
                order.append(names[node])
    return order


def _project(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    order: list[str],
    meta: dict,
) -> Schedule:
    """Per-processor projection of a global topological order."""
    orders: list[list[str]] = [[] for _ in range(placement.num_procs)]
    for t in order:
        orders[assignment[t]].append(t)
    sched = Schedule(
        graph=graph,
        placement=placement,
        assignment=dict(assignment),
        orders=orders,
        meta=meta,
    )
    sched.validate()
    return sched


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
    """
    check_assignment(graph, placement, assignment)
    candidates = (
        ("liu-postorder", liu_postorder(graph, placement, assignment)),
        ("program-order", graph.topological_order()),
    )
    best: Optional[tuple[tuple, str, Schedule]] = None
    for variant, order in candidates:
        m = dict(meta or {})
        m.update({"heuristic": "TREE", "tree_variant": variant})
        sched = _project(graph, placement, assignment, order, m)
        key = (analyze_memory(sched).min_mem, gantt(sched, comm).makespan)
        if best is None or key < best[0]:
            best = (key, variant, sched)
    assert best is not None
    return best[2]

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
smaller peak first, then smaller makespan — is returned.  The peaks are
scored first: the timing model runs only when they tie.
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
    return [names[i] for i in _liu_ids(gi, gi.mapping(placement, assignment))]


def _liu_ids(gi: "GraphIndex", mi: "MappingIndex") -> list[int]:
    """:func:`liu_postorder` in task ids, on the mapping index ``mi``."""
    pred, size, rows = gi.pred, gi.oid_size, mi.vola_oids
    n = len(rows)
    # Volatile bytes each task accesses, and those it writes (its
    # ``net``, read only as a child of a later task in topological
    # order).
    acc_b = [sum([size[o] for o in row]) if row else 0 for row in rows]
    net = [sum([size[o] for o in w if o in row]) if row else 0
           for w, row in zip(gi.write_oids, rows)]
    peak = [0] * n
    # Children (and roots) go in increasing ``net - peak``, ties by id:
    # ``rank`` packs both into one int per finished task, so one sort
    # keyed by it orders a task's predecessor ids.
    rank = [0] * n
    by_rank = rank.__getitem__
    kids: list[list[int]] = [[]] * n  # every entry replaced below
    for i in gi.topo:
        kids[i] = children = sorted([j for j, _ in pred[i]], key=by_rank)
        run = pk = 0
        for c in children:
            if run + peak[c] > pk:
                pk = run + peak[c]
            run += net[c]
        # Every candidate is non-negative, so ``pk`` may start at 0.
        if acc_b[i] + run > pk:
            pk = acc_b[i] + run
        peak[i] = pk
        rank[i] = (net[i] - pk) * n + i

    succ = gi.succ
    roots = [i for i in range(n) if not succ[i]]
    roots.sort(key=by_rank)
    order: list[int] = []
    seen = [False] * n
    for root in roots:
        if seen[root]:
            continue
        seen[root] = True
        # Iterative postorder: one child iterator per open node.
        nodes, its = [root], [iter(kids[root])]
        while its:
            for c in its[-1]:
                if not seen[c]:
                    seen[c] = True
                    nodes.append(c)
                    its.append(iter(kids[c]))
                    break
            else:
                its.pop()
                order.append(nodes.pop())
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
    candidate with the smaller peak (ties: smaller makespan; the
    makespans are computed only on such a tie).  The winning traversal
    is recorded in ``meta["tree_variant"]``.  Raises
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

    def project(order: list[int]) -> list[list[int]]:
        """Per-processor projection of a global topological order."""
        ids: list[list[int]] = [[] for _ in range(nprocs)]
        for i in order:
            ids[proc[i]].append(i)
        return ids

    def min_mem(ids: list[list[int]]) -> int:
        return max((
            max(proc_liveness(gi, mi, p, ids[p])[2], default=mi.perm_bytes[p])
            for p in range(nprocs)
        ), default=0)

    def makespan(ids: list[list[int]]) -> float:
        return max(gantt_times(gi, proc, ids, comm)[1], default=0.0)

    liu, prog = project(_liu_ids(gi, mi)), project(gi.topo)
    liu_mem, prog_mem = min_mem(liu), min_mem(prog)
    # Smaller MIN_MEM first; the makespans are computed only to break a
    # MIN_MEM tie, and a full tie keeps the postorder.
    if prog_mem < liu_mem or (
            prog_mem == liu_mem and makespan(prog) < makespan(liu)):
        variant, ids = "program-order", prog
    else:
        variant, ids = "liu-postorder", liu
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

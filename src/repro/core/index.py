"""Shared inspector index: per-graph and per-mapping tables.

The RAPID pipeline (Figure 1) runs its inspector once and its executor
many times, and a sweep orders one graph several ways under one mapping:
RCP, MPO and DTS all schedule the same task graph under the same
placement and task -> processor assignment, the liveness analysis walks
each resulting order, and
:class:`~repro.machine.simulator.CompiledSchedule` turns each order into
message tables.  Most of that work depends on the graph or on the
mapping but not on the order, so it is computed once here and shared:

* :class:`GraphIndex` — one per frozen
  :class:`~repro.graph.taskgraph.TaskGraph`: dense task ids in program
  order, the topological order, successor/predecessor rows carrying
  each edge's data byte count, task weights and access lists, dense
  object ids in sorted-name order with their sizes, plus a memo for
  other graph-only results (the DTS data connection graph, the
  simulator's producer-unit tables, the forest parent vector of the
  certified bounds).
* :class:`MappingIndex` — one per (graph, placement, assignment) value:
  the processor of every task, the volatile object ids each task
  touches and the PERM/VOLA sets of Definition 3, plus a memo for other
  mapping-only results (the mapped b-levels per communication model,
  which RCP, MPO, DTS, the exact solver and the certified bounds all
  read; the simulator's message tables).

Graph indexes live in a weak-keyed cache: an index dies with its graph,
and nothing in an index holds the graph strongly.  Each graph index
keeps the last :data:`MAX_MAPPINGS` mapping indexes, and
:meth:`GraphIndex.forget` drops one early once its caller is done with
it.  Mappings are matched by value — the owner of every object and the
processor of every task — so callers that rebuild an equal placement
and assignment for each heuristic share one index.  Unfrozen graphs may
still change, so they are never cached: every call builds a fresh
index.

Everything handed out by an index is shared.  Treat it as read-only.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Mapping, TypeVar

from ..errors import PlacementError
from ..graph.taskgraph import TaskGraph

if TYPE_CHECKING:  # the placement and schedule layers import this module
    from .placement import Placement

__all__ = [
    "GraphIndex",
    "MAX_MAPPINGS",
    "MappingIndex",
    "graph_index",
    "mapping_index",
]

#: Mapping indexes kept per graph index (least recently used evicted).
#: A sweep orders one (workload, P) mapping at a time and drops it with
#: :meth:`GraphIndex.forget` when the group finishes, so a few suffice;
#: the bound caps what callers that never forget (tables, the CLI's
#: ``analyze``) hold per graph.
MAX_MAPPINGS = 4

T = TypeVar("T")

#: Adjacency row of one task: ``(neighbour id, data bytes)`` per edge,
#: in the graph's insertion order; ``-1`` bytes marks a synchronisation
#: edge (no objects).
Row = tuple[tuple[int, int], ...]


class GraphIndex:
    """Mapping-independent shape of one task graph in dense id space.

    Task ids follow program order (``graph.task_names`` once frozen).
    """

    __slots__ = (
        "names", "tid", "topo", "succ", "pred", "in_degree", "weight",
        "accesses", "obj_size", "object_names", "oid", "oid_size",
        "_memo", "_mappings",
    )

    def __init__(self, graph: TaskGraph) -> None:
        tasks = list(graph.tasks())
        names = [t.name for t in tasks]
        tid = {n: i for i, n in enumerate(names)}
        osize = {o.name: o.size for o in graph.objects()}
        object_names = sorted(osize)

        def row(inner: Mapping[str, set[str]]) -> Row:
            return tuple(
                (tid[v], sum(osize[o] for o in objs) if objs else -1)
                for v, objs in inner.items()
            )

        smap, pmap = graph.successor_map(), graph.predecessor_map()
        self.names = names
        self.tid = tid
        self.topo = [tid[n] for n in graph.topological_order()]
        self.succ: tuple[Row, ...] = tuple(row(smap[n]) for n in names)
        self.pred: tuple[Row, ...] = tuple(row(pmap[n]) for n in names)
        self.in_degree = [len(r) for r in self.pred]
        self.weight = [t.weight for t in tasks]
        self.accesses = [t.accesses for t in tasks]
        self.obj_size = osize
        self.object_names = object_names
        #: object name -> object id (its position in ``object_names``)
        self.oid = (graph.object_index if graph.frozen
                    else {o: i for i, o in enumerate(object_names)})
        self.oid_size = [osize[o] for o in object_names]
        self._memo: dict = {}
        self._mappings: OrderedDict[tuple, MappingIndex] = OrderedDict()

    def memo(self, key, build: Callable[[], T]) -> T:
        """``build()`` once per key.  The result must not reference the
        graph (the index would keep its own weak key alive)."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def _mapping_key(self, placement: Placement, assignment: Mapping[str, int]) -> tuple:
        """Value key of a mapping: the processor count, the processor of
        every task and the owner of every object (``-1`` if unowned)."""
        owner = placement.owner
        return (
            placement.num_procs,
            tuple([assignment[t] for t in self.names]),
            tuple([owner.get(o, -1) for o in self.object_names]),
        )

    def mapping(self, placement: Placement, assignment: Mapping[str, int]) -> "MappingIndex":
        """The :class:`MappingIndex` of (``placement``, ``assignment``),
        shared by every equal mapping (LRU of :data:`MAX_MAPPINGS`)."""
        key = self._mapping_key(placement, assignment)
        mi = self._mappings.pop(key, None)
        if mi is None:
            mi = MappingIndex(self, placement, list(key[1]))
        self._mappings[key] = mi  # most recently used last
        if len(self._mappings) > MAX_MAPPINGS:
            self._mappings.popitem(last=False)
        return mi

    def forget(self, placement: Placement, assignment: Mapping[str, int]) -> None:
        """Drop the :class:`MappingIndex` of an equal mapping, and with
        it that mapping's memo (lowering tables, mapped b-levels), once
        no caller will ask for it again.  A later :meth:`mapping` call
        rebuilds it; graph-level memos are kept."""
        self._mappings.pop(self._mapping_key(placement, assignment), None)


class MappingIndex:
    """Order-independent tables of one graph under one mapping.

    ``proc[i]`` is the processor of task id ``i``; the placement-derived
    tables are built on first use (a placement may leave objects
    unowned, which only the memory analyses reject).
    """

    __slots__ = (
        "names", "num_procs", "proc", "_accesses", "_obj_size", "_oid",
        "_owner", "_memo",
    )

    def __init__(self, gi: GraphIndex, placement: Placement, proc: list[int]) -> None:
        self.names = gi.names
        self.num_procs = placement.num_procs
        self.proc = proc
        self._accesses = gi.accesses
        self._obj_size = gi.obj_size
        self._oid = gi.oid
        self._owner = dict(placement.owner)
        self._memo: dict = {}

    def memo(self, key, build: Callable[[], T]) -> T:
        """``build()`` once per key (e.g. per communication model).  Like
        :meth:`GraphIndex.memo`, the result must not reference the graph."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def owner(self, obj: str) -> int:
        """Owner processor of ``obj`` (:class:`Placement` semantics)."""
        try:
            return self._owner[obj]
        except KeyError:
            raise PlacementError(f"object {obj!r} has no owner") from None

    @property
    def vola_oids(self) -> list[tuple[int, ...]]:
        """Task id -> the ids of the objects it accesses that its
        processor does not own (its volatile accesses), in access
        order."""
        def build() -> list[tuple[int, ...]]:
            own, oid = self._owner, self._oid
            try:
                return [
                    tuple([oid[o] for o in acc if own[o] != p])
                    for acc, p in zip(self._accesses, self.proc)
                ]
            except KeyError as err:
                self.owner(err.args[0])  # raises the PlacementError
                raise

        return self.memo("vola-oids", build)

    @property
    def perm(self) -> list[set[str]]:
        """``PERM(P)`` of Definition 3: objects each processor owns and
        accesses."""
        return self.memo("perm-vola", self._perm_vola)[0]

    @property
    def vola(self) -> list[set[str]]:
        """``VOLA(P)`` of Definition 3: objects each processor accesses
        but does not own."""
        return self.memo("perm-vola", self._perm_vola)[1]

    def _perm_vola(self) -> tuple[list[set[str]], list[set[str]]]:
        touched: list[set[str]] = [set() for _ in range(self.num_procs)]
        for acc, p in zip(self._accesses, self.proc):
            touched[p].update(acc)
        owner = self.owner
        perm = [{o for o in objs if owner(o) == p} for p, objs in enumerate(touched)]
        return perm, [objs - mine for objs, mine in zip(touched, perm)]

    @property
    def perm_bytes(self) -> list[int]:
        """Permanent footprint of every processor."""
        return self.memo("perm-bytes", lambda: self._bytes(self.perm))

    @property
    def vola_bytes(self) -> list[int]:
        """Volatile footprint (no recycling) of every processor."""
        return self.memo("vola-bytes", lambda: self._bytes(self.vola))

    def _bytes(self, sets: list[set[str]]) -> list[int]:
        size = self._obj_size
        return [sum(size[o] for o in s) for s in sets]


#: frozen graph -> its index.  Weak keys: the index dies with the graph.
_INDEX_CACHE: "weakref.WeakKeyDictionary[TaskGraph, GraphIndex]" = (
    weakref.WeakKeyDictionary()
)


def graph_index(graph: TaskGraph) -> GraphIndex:
    """The shared :class:`GraphIndex` of ``graph`` (fresh when unfrozen)."""
    if not graph.frozen:
        return GraphIndex(graph)
    gi = _INDEX_CACHE.get(graph)
    if gi is None:
        gi = _INDEX_CACHE[graph] = GraphIndex(graph)
    return gi


def mapping_index(
    graph: TaskGraph, placement: Placement, assignment: Mapping[str, int]
) -> MappingIndex:
    """The shared :class:`MappingIndex` of ``graph`` under ``placement``
    and ``assignment`` (every task must be assigned)."""
    return graph_index(graph).mapping(placement, assignment)

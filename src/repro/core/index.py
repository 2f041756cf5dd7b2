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
  order, the topological order, one flat edge table (every edge's
  endpoints, a CSR of the object ids it carries and its byte count)
  with the successor/predecessor rows derived from it, task weights
  and access lists, dense object ids in sorted-name order with their
  sizes, plus a memo for other graph-only results (the DTS data
  connection graph, the simulator's producer-unit tables, the forest
  parent vector of the certified bounds).
* :class:`MappingIndex` — one per (graph, placement, assignment) value:
  the processor of every task, the volatile object ids each task
  touches and the PERM/VOLA sets of Definition 3, plus a memo for other
  mapping-only results (the mapped b-levels per communication model,
  which RCP, MPO, DTS, the exact solver and the certified bounds all
  read; the simulator's message tables).

Building a mapping's key runs :func:`check_assignment`, the one check
that every task has a processor in ``[0, P)``.

Graph indexes live in a weak-keyed cache: an index dies with its graph,
and nothing in an index holds the graph strongly.  Each graph index
keeps the last :data:`MAX_MAPPINGS` mapping indexes, and
:meth:`GraphIndex.forget` drops one early once its caller is done with
it.  Mappings are matched by value — the owner of every object and the
processor of every task — so callers that rebuild an equal placement
and assignment for each heuristic share one index; a repeated lookup of
an unchanged mapping reuses the last value key after two dict
comparisons instead of rebuilding it.  Unfrozen graphs may
still change, so they are never cached: every call builds a fresh
index.

Everything handed out by an index is shared.  Treat it as read-only.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Mapping, Sequence, TypeVar

import numpy as np

from ..errors import PlacementError, SchedulingError
from ..graph.taskgraph import TaskGraph

if TYPE_CHECKING:  # the placement and schedule layers import this module
    from .placement import Placement

__all__ = [
    "GraphIndex",
    "MAX_MAPPINGS",
    "MappingIndex",
    "check_assignment",
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

    Task ids follow program order (``graph.task_names``); object ids
    follow the sorted object names (``object_names``).

    The edge table holds every edge ``edge_u[e] -> edge_v[e]`` in
    ``successor_map`` order (by source id, then insertion order) as
    read-only int64 arrays: ``edge_oid[edge_ptr[e]:edge_ptr[e + 1]]``
    are the sorted object ids it carries (empty for a synchronisation
    edge).  One pass over the successor map builds it, and the
    ``succ``/``pred`` rows and ``in_degree`` are slices of it, so each
    edge's bytes are summed once.  The simulator's lowering and
    the DCG read the table in bulk.
    """

    __slots__ = (
        "names", "tid", "topo", "succ", "pred", "in_degree", "weight",
        "accesses", "write_oids", "obj_size", "object_names", "oid", "oid_size",
        "edge_u", "edge_v", "edge_ptr", "edge_oid",
        "_memo", "_mappings", "_last_key",
    )

    def __init__(self, graph: TaskGraph) -> None:
        tasks = list(graph.tasks())
        names = [t.name for t in tasks]
        tid = {name: i for i, name in enumerate(names)}
        osize = {o.name: o.size for o in graph.objects()}
        object_names = sorted(osize)
        oid = {o: i for i, o in enumerate(object_names)}
        oid_size = [osize[o] for o in object_names]

        edge_u, edge_v, edge_ptr, edge_oid, edge_nbytes = _edge_table(
            graph, names, tid, oid, oid_size)
        succ, pred, in_degree = _rows(graph, names, tid, edge_u, edge_v,
                                      edge_nbytes)

        self.names = names
        self.tid = tid
        self.topo = [tid[t] for t in graph.topological_order()]
        self.succ: tuple[Row, ...] = succ
        self.pred: tuple[Row, ...] = pred
        self.in_degree = in_degree
        self.weight = [t.weight for t in tasks]
        self.accesses = [t.accesses for t in tasks]
        #: task id -> the ids of the objects it writes, in write order
        self.write_oids = [tuple(map(oid.__getitem__, t.writes)) for t in tasks]
        self.obj_size = osize
        self.object_names = object_names
        #: object name -> object id (its position in ``object_names``)
        self.oid = oid
        self.oid_size = oid_size
        self.edge_u, self.edge_v = edge_u, edge_v
        self.edge_ptr, self.edge_oid = edge_ptr, edge_oid
        self._memo: dict = {}
        self._mappings: OrderedDict[tuple, MappingIndex] = OrderedDict()
        self._last_key: tuple = (None, None, None, None)

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
        every task (:func:`check_assignment`) and the owner of every
        object (``-1`` if unowned).

        The key of the last lookup is kept with snapshots of its
        assignment and owner map; an equal mapping — the same objects
        unchanged, or equal copies — reuses it, and a mutated one
        builds a fresh key."""
        owner = placement.owner
        procs, last_asg, last_owner, key = self._last_key
        if (procs == placement.num_procs and last_asg == assignment
                and last_owner == owner):
            return key
        key = (
            placement.num_procs,
            tuple(check_assignment(self.names, placement.num_procs, assignment)),
            tuple([owner.get(o, -1) for o in self.object_names]),
        )
        self._last_key = (placement.num_procs, dict(assignment), dict(owner), key)
        return key

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


def check_assignment(
    names: Sequence[str], num_procs: int, assignment: Mapping[str, int]
) -> list[int]:
    """The processor of every task in ``names``, in that order.  Raises
    :class:`~repro.errors.SchedulingError` for the first task without a
    processor in ``[0, num_procs)``."""
    proc = [assignment.get(t) for t in names]
    for t, q in zip(names, proc):
        if q is None:
            raise SchedulingError(f"task {t!r} has no processor assignment")
        if not 0 <= q < num_procs:
            raise SchedulingError(
                f"task {t!r} is assigned to processor {q}, outside "
                f"[0, {num_procs})"
            )
    return proc


def _edge_table(graph: TaskGraph, names, tid, oid, oid_size):
    """Every edge of ``graph`` in ``successor_map`` order, in one pass:
    ``(edge_u, edge_v, edge_ptr, edge_oid, edge_nbytes)`` as read-only
    int64 arrays (see :class:`GraphIndex`); ``edge_nbytes[e]`` is the
    total size of edge ``e``'s objects, ``-1`` for a synchronisation
    edge."""
    n = len(names)
    smap = graph.successor_map()
    inner = [smap[name] for name in names]
    objsets = list(chain.from_iterable(d.values() for d in inner))
    ne = len(objsets)
    edge_u = np.repeat(np.arange(n, dtype=np.int64),
                       np.fromiter(map(len, inner), np.int64, n))
    edge_v = np.fromiter(map(tid.__getitem__, chain.from_iterable(inner)),
                         np.int64, ne)
    count = np.fromiter(map(len, objsets), np.int64, ne)
    edge_ptr = np.zeros(ne + 1, dtype=np.int64)
    np.cumsum(count, out=edge_ptr[1:])
    edge_oid = np.fromiter(
        map(oid.__getitem__, chain.from_iterable(objsets)), np.int64,
        int(edge_ptr[-1]))
    if (count > 1).any():
        # An edge's objects come in set order, which the hash seed
        # salts; oids follow sorted names, so sorting each edge's oids
        # gives the interpreted engine's sorted(objs) send order.
        edge_oid = edge_oid[np.lexsort(
            (edge_oid, np.repeat(np.arange(ne), count)))]
    # Sizes plus a trailing 0 at index nobj: the per-edge sums read one
    # slot past the last edge's objects.  Exact Python ints when a sum
    # could pass int64.
    size = np.array([*oid_size, 0],
                    dtype=object if sum(oid_size) >= 2 ** 63 else None)
    summed = np.add.reduceat(size[np.append(edge_oid, len(oid_size))],
                             edge_ptr[:-1])
    edge_nbytes = np.where(count > 0, summed, -1)
    table = (edge_u, edge_v, edge_ptr, edge_oid, edge_nbytes)
    for a in table:
        a.flags.writeable = False
    return table


def _rows(graph: TaskGraph, names, tid, edge_u, edge_v, edge_nbytes):
    """``(succ, pred, in_degree)`` sliced from the edge table; the
    predecessor rows keep the graph's own order (each entry of the
    predecessor map finds its edge by the key ``u * n + v``)."""
    n = len(names)
    pmap = graph.predecessor_map()
    pin = [pmap[name] for name in names]
    in_degree = np.fromiter(map(len, pin), np.int64, n)
    pred_u = np.fromiter(map(tid.__getitem__, chain.from_iterable(pin)),
                         np.int64, len(edge_v))
    key = edge_u * n + edge_v
    by_key = np.argsort(key)
    pred_e = by_key[np.searchsorted(
        key[by_key], pred_u * n + np.repeat(np.arange(n), in_degree))]
    # Rows hold one int object per task id and per edge byte count
    # (object arrays index without making new ints).
    ids = np.fromiter(tid.values(), object, n)
    nbytes = edge_nbytes.astype(object)
    out_pairs = zip(ids[edge_v].tolist(), nbytes.tolist())
    in_pairs = zip(ids[pred_u].tolist(), nbytes[pred_e].tolist())
    in_deg = in_degree.tolist()
    return (tuple([tuple(islice(out_pairs, d))
                   for d in np.bincount(edge_u, minlength=n).tolist()]),
            tuple([tuple(islice(in_pairs, d)) for d in in_deg]),
            in_deg)


class MappingIndex:
    """Order-independent tables of one graph under one mapping.

    ``proc[i]`` is the processor of task id ``i``; the placement-derived
    tables are built on first use (a placement may leave objects
    unowned, which only the memory analyses reject).
    """

    __slots__ = (
        "names", "num_procs", "proc", "_accesses", "_oid", "_oid_size",
        "_object_names", "_owner", "_memo",
    )

    def __init__(self, gi: GraphIndex, placement: Placement, proc: list[int]) -> None:
        self.names = gi.names
        self.num_procs = placement.num_procs
        self.proc = proc
        self._accesses = gi.accesses
        self._oid = gi.oid
        self._oid_size = gi.oid_size
        self._object_names = gi.object_names
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
        return self.memo("perm", lambda: self._names(self._perm_vola_oids()[0]))

    @property
    def vola(self) -> list[set[str]]:
        """``VOLA(P)`` of Definition 3: objects each processor accesses
        but does not own."""
        return self.memo("vola", lambda: self._names(self._perm_vola_oids()[1]))

    def _perm_vola_oids(self) -> tuple[list[set[int]], list[set[int]]]:
        """``PERM(P)`` and ``VOLA(P)`` as object-id sets: a processor's
        volatile ids are its tasks' :attr:`vola_oids` rows, and every
        other id its tasks access is permanent."""
        def build() -> tuple[list[set[int]], list[set[int]]]:
            nprocs = self.num_procs
            touched: list[set[str]] = [set() for _ in range(nprocs)]
            vola: list[set[int]] = [set() for _ in range(nprocs)]
            for acc, p, row in zip(self._accesses, self.proc, self.vola_oids):
                touched[p].update(acc)
                vola[p].update(row)
            oid = self._oid
            perm = [{oid[o] for o in objs} - v for objs, v in zip(touched, vola)]
            return perm, vola

        return self.memo("perm-vola-oids", build)

    def _names(self, sets: list[set[int]]) -> list[set[str]]:
        names = self._object_names
        return [{names[o] for o in s} for s in sets]

    @property
    def perm_bytes(self) -> list[int]:
        """Permanent footprint of every processor."""
        return self.memo("perm-bytes", lambda: self._bytes(self._perm_vola_oids()[0]))

    @property
    def vola_bytes(self) -> list[int]:
        """Volatile footprint (no recycling) of every processor."""
        return self.memo("vola-bytes", lambda: self._bytes(self._perm_vola_oids()[1]))

    def _bytes(self, sets: list[set[int]]) -> list[int]:
        size = self._oid_size
        return [sum([size[o] for o in s]) for s in sets]


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
    and ``assignment`` (checked by :func:`check_assignment`)."""
    return graph_index(graph).mapping(placement, assignment)

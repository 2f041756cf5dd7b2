"""The task dependence graph (transformed DAG of true dependencies).

This is the central data structure of the library.  A
:class:`TaskGraph` holds

* the data objects of the computation,
* the tasks, each with its read/write sets,
* the *true* dependence edges ``u -> v`` annotated with the set of data
  objects whose values flow along the edge (an empty set denotes a pure
  synchronisation edge inserted by the dependence-completeness
  transformation),
* the commuting groups (RAPID's commutative-task extension).

The graph is append-only while being built and *frozen* afterwards;
freezing checks acyclicity and caches the topological order.  The dense
task and object ids the scheduling algorithms run on (dict-of-set
adjacency would be far too slow for graphs with tens of thousands of
tasks) belong to the graph's :class:`~repro.core.index.GraphIndex`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..errors import CycleError, GraphError
from .objects import DataObject
from .tasks import Task


class TaskGraph:
    """A DAG of tasks over shared data objects.

    Typical construction goes through
    :class:`~repro.graph.builder.GraphBuilder`, which derives the edges
    from a sequential access trace; this class also allows explicit edge
    insertion for tests and synthetic generators.
    """

    def __init__(self) -> None:
        self._objects: dict[str, DataObject] = {}
        self._tasks: dict[str, Task] = {}
        self._task_order: list[str] = []  # insertion (program) order
        self._succ: dict[str, dict[str, set[str]]] = {}  # u -> v -> objs
        self._pred: dict[str, dict[str, set[str]]] = {}
        self._commute_groups: dict[str, list[str]] = {}
        self._frozen = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise GraphError("graph is frozen; no further mutation allowed")

    def add_object(self, obj: DataObject | str, size: int = 1) -> DataObject:
        """Register a data object (idempotent for identical definitions)."""
        self._check_mutable()
        if isinstance(obj, str):
            obj = DataObject(obj, size)
        existing = self._objects.get(obj.name)
        if existing is not None:
            if existing != obj:
                raise GraphError(f"object {obj.name!r} redefined with different size")
            return existing
        self._objects[obj.name] = obj
        return obj

    def add_task(self, task: Task) -> Task:
        """Register a task; all accessed objects must already exist."""
        self._check_mutable()
        if task.name in self._tasks:
            raise GraphError(f"duplicate task name {task.name!r}")
        for o in task.accesses:
            if o not in self._objects:
                raise GraphError(f"task {task.name!r} accesses unknown object {o!r}")
        self._tasks[task.name] = task
        self._task_order.append(task.name)
        self._succ[task.name] = {}
        self._pred[task.name] = {}
        if task.commute is not None:
            self._commute_groups.setdefault(task.commute, []).append(task.name)
        return task

    def add_edge(self, u: str, v: str, obj: Optional[str] = None) -> None:
        """Add a true-dependence edge ``u -> v``.

        ``obj`` names the data object whose value flows along the edge;
        ``None`` adds a pure synchronisation edge.  Parallel edges for
        different objects are merged into one edge with a set of objects.
        """
        self._check_mutable()
        if u not in self._tasks or v not in self._tasks:
            missing = u if u not in self._tasks else v
            raise GraphError(f"edge endpoint {missing!r} is not a task")
        if u == v:
            raise GraphError(f"self-dependence on task {u!r}")
        if obj is not None and obj not in self._objects:
            raise GraphError(f"edge {u!r}->{v!r} carries unknown object {obj!r}")
        objs = self._succ[u].setdefault(v, set())
        self._pred[v].setdefault(u, objs)
        if obj is not None:
            objs.add(obj)

    # ------------------------------------------------------------------
    # freezing and the topological order
    # ------------------------------------------------------------------

    def freeze(self) -> "TaskGraph":
        """Validate acyclicity and cache the topological order.

        Returns ``self`` for chaining.  Freezing is idempotent.
        """
        if self._frozen:
            return self
        self._topo_cache = self._toposort()  # raises CycleError on cycles
        self._edge_count_cache = sum(len(s) for s in self._succ.values())
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _toposort(self) -> list[str]:
        indeg = {n: len(self._pred[n]) for n in self._task_order}
        queue = deque(n for n in self._task_order if indeg[n] == 0)
        out: list[str] = []
        while queue:
            n = queue.popleft()
            out.append(n)
            for m in self._succ[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    queue.append(m)
        if len(out) != len(self._task_order):
            stuck = [n for n in self._task_order if indeg[n] > 0]
            raise CycleError(", ".join(stuck[:5]))
        return out

    def topological_order(self) -> list[str]:
        """A topological order of the tasks (cached once frozen)."""
        if self._frozen:
            return list(self._topo_cache)
        return self._toposort()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def task_names(self) -> list[str]:
        """Task names in program (insertion) order.  Treat as
        read-only."""
        return self._task_order

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    @property
    def num_objects(self) -> int:
        return len(self._objects)

    @property
    def num_edges(self) -> int:
        # Frozen graphs cannot gain edges, so the count computed by
        # freeze() stays valid; recomputing it here would make every
        # fingerprint check O(tasks).
        if self._frozen:
            return self._edge_count_cache
        return sum(len(s) for s in self._succ.values())

    def tasks(self) -> Iterator[Task]:
        """Tasks in program (insertion) order."""
        return (self._tasks[n] for n in self._task_order)

    def objects(self) -> Iterator[DataObject]:
        return iter(self._objects.values())

    def task(self, name: str) -> Task:
        try:
            return self._tasks[name]
        except KeyError:
            raise GraphError(f"unknown task {name!r}") from None

    def object(self, name: str) -> DataObject:
        try:
            return self._objects[name]
        except KeyError:
            raise GraphError(f"unknown object {name!r}") from None

    def has_task(self, name: str) -> bool:
        return name in self._tasks

    def has_object(self, name: str) -> bool:
        return name in self._objects

    def successors(self, name: str) -> Iterable[str]:
        return self._succ[name].keys()

    def successor_map(self) -> dict[str, dict[str, set[str]]]:
        """The internal ``u -> {v -> objects}`` adjacency, for analyses
        that sweep the whole graph without per-node accessor calls.
        Treat as read-only."""
        return self._succ

    def predecessor_map(self) -> dict[str, dict[str, set[str]]]:
        """The internal ``v -> {u -> objects}`` reverse adjacency.
        Treat as read-only."""
        return self._pred

    def predecessors(self, name: str) -> Iterable[str]:
        return self._pred[name].keys()

    def edge_objects(self, u: str, v: str) -> frozenset[str]:
        """Objects flowing along edge ``u -> v`` (empty for sync edges)."""
        try:
            return frozenset(self._succ[u][v])
        except KeyError:
            raise GraphError(f"no edge {u!r} -> {v!r}") from None

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._succ.get(u, ())

    def edges(self) -> Iterator[tuple[str, str, frozenset[str]]]:
        for u, succs in self._succ.items():
            for v, objs in succs.items():
                yield u, v, frozenset(objs)

    def in_degree(self, name: str) -> int:
        return len(self._pred[name])

    def out_degree(self, name: str) -> int:
        return len(self._succ[name])

    def entry_tasks(self) -> list[str]:
        """Tasks without predecessors."""
        return [n for n in self._task_order if not self._pred[n]]

    def exit_tasks(self) -> list[str]:
        """Tasks without successors."""
        return [n for n in self._task_order if not self._succ[n]]

    def writers(self, obj: str) -> list[str]:
        """Tasks that write ``obj``, in program order."""
        return [n for n in self._task_order if obj in self._tasks[n].writes]

    def readers(self, obj: str) -> list[str]:
        """Tasks that read ``obj``, in program order."""
        return [n for n in self._task_order if obj in self._tasks[n].reads]

    def commute_groups(self) -> Mapping[str, Sequence[str]]:
        """Map commuting-group key -> task names in the group."""
        return {k: tuple(v) for k, v in self._commute_groups.items()}

    def commute_peers(self, name: str) -> tuple[str, ...]:
        """Other tasks in the same commuting group as ``name``."""
        t = self._tasks[name]
        if t.commute is None:
            return ()
        return tuple(x for x in self._commute_groups[t.commute] if x != name)

    def total_work(self) -> float:
        """Sum of task weights (the sequential execution time ``PT_1``)."""
        return sum(t.weight for t in self._tasks.values())

    def total_data(self) -> int:
        """Sum of object sizes: the sequential space requirement ``S1``.

        The paper's ``S1`` counts the space dedicated to storing the
        content of data objects (section 1, last paragraph) — exactly the
        sum of all object sizes since a sequential execution holds every
        object exactly once.
        """
        return sum(o.size for o in self._objects.values())

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskGraph(tasks={self.num_tasks}, objects={self.num_objects}, "
            f"edges={self.num_edges}, frozen={self._frozen})"
        )

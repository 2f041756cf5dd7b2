"""Data placement (ownership) and the owner-compute rule.

Definition 1 of the paper: a static schedule assigns every data object a
unique *owner* processor.  Definition 3 splits the objects a processor
accesses, ``DO(P)``, into **permanent** objects (owned, allocated for the
whole computation) and **volatile** objects (non-owned, candidates for
active memory management).

The owner-compute rule ("all the tasks that modify the same object are
assigned to the same cluster", section 4) turns a placement into a task
assignment; conversely a task assignment produced by a general clustering
algorithm (DSC) induces a placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..errors import PlacementError
from ..graph.taskgraph import TaskGraph
from .index import mapping_index


@dataclass(frozen=True)
class Placement:
    """Immutable object -> owner-processor map."""

    num_procs: int
    owner: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_procs(self.num_procs)
        bad = {o: p for o, p in self.owner.items() if not (0 <= p < self.num_procs)}
        if bad:
            raise PlacementError(f"owners out of range [0, {self.num_procs}): {bad}")

    def __getitem__(self, obj: str) -> int:
        try:
            return self.owner[obj]
        except KeyError:
            raise PlacementError(f"object {obj!r} has no owner") from None

    def __contains__(self, obj: str) -> bool:
        return obj in self.owner

    def owned_by(self, proc: int) -> list[str]:
        """Objects owned by ``proc`` (sorted for determinism)."""
        return sorted(o for o, p in self.owner.items() if p == proc)


def _require_procs(num_procs: int) -> None:
    if num_procs <= 0:
        raise PlacementError(f"num_procs must be positive, got {num_procs}")


def cyclic_placement(graph: TaskGraph, num_procs: int, order: Sequence[str] | None = None) -> Placement:
    """Assign objects to processors round-robin.

    With ``order`` left as ``None`` objects are taken in name-sorted
    order; the paper's worked example uses ``owner(d_i) = (i-1) mod p``,
    reproduced by passing the objects in index order.  Raises
    :class:`~repro.errors.PlacementError` when ``num_procs < 1``.
    """
    _require_procs(num_procs)
    names = list(order) if order is not None else sorted(o.name for o in graph.objects())
    return Placement(num_procs, {o: i % num_procs for i, o in enumerate(names)})


def block_placement(graph: TaskGraph, num_procs: int, order: Sequence[str] | None = None) -> Placement:
    """Assign contiguous chunks of the object list to processors.

    Raises :class:`~repro.errors.PlacementError` when ``num_procs < 1``.
    """
    _require_procs(num_procs)
    names = list(order) if order is not None else sorted(o.name for o in graph.objects())
    n = len(names)
    if n == 0:
        return Placement(num_procs, {})
    per = -(-n // num_procs)  # ceil
    return Placement(num_procs, {o: min(i // per, num_procs - 1) for i, o in enumerate(names)})


def placement_from_dict(num_procs: int, owner: Mapping[str, int]) -> Placement:
    """Wrap an explicit owner map (used by the sparse 2-D/1-D mappings)."""
    return Placement(num_procs, dict(owner))


# ----------------------------------------------------------------------
# owner-compute task assignment
# ----------------------------------------------------------------------


def owner_compute_assignment(graph: TaskGraph, placement: Placement) -> dict[str, int]:
    """Assign every task to the owner of the object(s) it writes.

    Read-only tasks go to the owner of their first read object (they
    produce nothing, so any placement is legal; co-locating with an input
    avoids a message).  Raises :class:`~repro.errors.PlacementError` if a
    task writes objects owned by different processors — such a task graph
    cannot follow the owner-compute rule under this placement.
    """
    assignment: dict[str, int] = {}
    for t in graph.tasks():
        if t.writes:
            owners = {placement[o] for o in t.writes}
            if len(owners) > 1:
                raise PlacementError(
                    f"task {t.name!r} writes objects owned by processors "
                    f"{sorted(owners)}; owner-compute requires a single owner"
                )
            assignment[t.name] = owners.pop()
        elif t.reads:
            assignment[t.name] = placement[t.reads[0]]
        else:
            assignment[t.name] = 0
    return assignment


def derive_placement(graph: TaskGraph, assignment: Mapping[str, int], num_procs: int) -> Placement:
    """Induce a placement from a task assignment.

    The owner of an object is the processor running its writers; all
    writers must be co-located (general clusterings are post-processed by
    :func:`repro.core.clustering.colocate_writers` to guarantee this).
    Objects that are never written are owned by their first reader's
    processor.
    """
    owner: dict[str, int] = {}
    for t in graph.tasks():
        p = assignment[t.name]
        for o in t.writes:
            prev = owner.get(o)
            if prev is None:
                owner[o] = p
            elif prev != p:
                raise PlacementError(
                    f"object {o!r} is written on processors {prev} and {p}; "
                    "cannot derive a unique owner"
                )
    for t in graph.tasks():
        for o in t.reads:
            owner.setdefault(o, assignment[t.name])
    for o in graph.objects():
        owner.setdefault(o.name, 0)
    return Placement(num_procs, owner)


def validate_owner_compute(
    graph: TaskGraph, placement: Placement, assignment: Mapping[str, int]
) -> None:
    """Raise unless every writer of every object runs on the owner."""
    for t in graph.tasks():
        for o in t.writes:
            if assignment[t.name] != placement[o]:
                raise PlacementError(
                    f"task {t.name!r} writes {o!r} on processor "
                    f"{assignment[t.name]} but the owner is {placement[o]}"
                )


# ----------------------------------------------------------------------
# permanent / volatile object sets (Definition 3)
# ----------------------------------------------------------------------


def accessed_objects(graph: TaskGraph, tasks: Iterable[str]) -> set[str]:
    """``DO``: the set of objects accessed by the given tasks."""
    out: set[str] = set()
    for name in tasks:
        out.update(graph.task(name).accesses)
    return out


def perm_vola_sets(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
) -> tuple[list[set[str]], list[set[str]]]:
    """``(PERM(P), VOLA(P))`` for every processor (Definition 3).

    Fresh copies of the sets kept on the mapping's shared
    :class:`~repro.core.index.MappingIndex`.
    """
    mi = mapping_index(graph, placement, assignment)
    return [set(s) for s in mi.perm], [set(s) for s in mi.vola]

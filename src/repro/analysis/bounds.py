"""Certified static lower bounds on PT and MIN_MEM (``SA4xx``).

The paper's premise (Defs 1-6, Theorem 1) is that space and time
feasibility are decidable *before* execution.  This pass closes that
loop: from the task graph, the placement and the assignment alone — no
ordering, no MAP planning, no simulation — it derives lower bounds that
every valid static schedule must respect, each carried as a typed
:class:`Bound` with a provenance certificate naming the witness.

Time bounds (any schedule under this assignment and comm model):

* **critical-path** — the longest mapped path (b-level with
  cross-processor communication charged, exactly the RCP priority
  metric of section 4.1);
* **processor-work** — ``max_p work(p)``: a processor cannot finish
  before serially executing its own tasks;
* **processor-window** — ``min_{t on p} top(t) + work(p) +
  min_{t on p} tail(t)``: the first task of ``p`` cannot start before
  the smallest top level on ``p``, the serial work follows, and after
  ``p``'s last task at least the smallest remaining b-level tail is
  still ahead of the makespan.

Memory bounds (Definitions 3, 5-6; any execution order):

* **residency-hold** — while task ``i`` runs on ``p``, the permanent
  set PERM(p) plus every volatile object ``i`` accesses is resident;
* **forced-span** — on forests (every task has at most one successor,
  e.g. elimination trees, cf. Liu's peak-net bounds), a volatile object
  with two accessors ``u`` ≺ ``w`` on ``p`` spans every ``p``-task the
  DAG forces strictly between them, because the life span (first to
  last access, Definition 4) covers the whole window in *every* valid
  order.

Cost discipline: the bounds read the tables the inspector already
holds.  The graph side (topological order, weights, successor rows
with edge byte counts, access lists, object sizes) is the graph's
shared :class:`~repro.core.index.GraphIndex`, plus the forest parent
vector memoised on it; the mapping side (processors, PERM(p) bytes,
each task's volatile object ids) is the
:class:`~repro.core.index.MappingIndex` that liveness and MPO use; and
the mapped b-levels are the per-(mapping, comm) table of
:func:`repro.core.rcp.mapping_b_levels` that RCP, MPO and DTS order
by.  A query adds one t-level sweep and the per-processor aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..core import rcp
from ..core.index import GraphIndex, MappingIndex, check_assignment, graph_index
from ..core.placement import Placement
from ..core.schedule import CommModel, Schedule, UNIT_COMM, gantt
from ..errors import SchedulingError
from ..graph.taskgraph import TaskGraph
from .diagnostics import Diagnostic

__all__ = [
    "Bound",
    "BoundSet",
    "bounds_pass",
    "certified_bounds",
    "memory_bounds",
    "schedule_bounds",
    "time_bounds",
]

#: Relative slack of the SA402/SA403 comparisons: a reported value must
#: undercut the certified bound by more than this to count as corrupt
#: (absorbs float summation order differences, not real violations).
_REL_EPS = 1e-9


@dataclass(frozen=True)
class Bound:
    """One certified lower bound with its provenance.

    ``metric`` is ``"pt"`` or ``"min_mem"``; ``method`` names the
    argument that proves the bound; ``certificate`` is a human-readable
    witness (the path end, processor or task the bound is tight on).
    """

    metric: str
    value: float
    method: str
    certificate: str

    def __str__(self) -> str:
        return f"{self.metric} >= {self.value:g} [{self.method}] {self.certificate}"


@dataclass(frozen=True)
class BoundSet:
    """The best certified bound per metric plus every candidate."""

    pt: Bound
    min_mem: Bound
    candidates: tuple[Bound, ...]

    def describe(self) -> str:
        lines = [f"certified: {self.pt}", f"certified: {self.min_mem}"]
        lines.extend(f"candidate: {b}" for b in self.candidates)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# time
# ----------------------------------------------------------------------


def _time_candidates(
    gi: GraphIndex,
    proc: list[int],
    bl: list[float],
    num_procs: int,
    comm: CommModel,
) -> list[Bound]:
    """The three PT bounds from the mapped b-levels ``bl`` (by task id).

    One sweep in topological order pushes the t-levels along
    ``gi.succ`` (a data edge between processors costs ``latency +
    byte_time * bytes``, everything else is free, as in the b-levels)
    and folds the per-processor work, smallest top level and smallest
    tail.  The critical-path argmax keeps the first maximum in
    topological order.
    """
    topo = gi.topo
    if not topo:
        return [Bound("pt", 0.0, "critical-path", "empty graph")]
    lat, bt = comm.latency, comm.byte_time
    succ, weight = gi.succ, gi.weight
    inf = float("inf")
    tl = [0.0] * len(topo)
    work = [0.0] * num_procs
    min_top = [inf] * num_procs
    min_tail = [inf] * num_procs
    top = topo[0]
    bl_top = bl[top]
    for i in topo:
        p = proc[i]
        w = weight[i]
        t = tl[i]
        base = t + w
        for j, nb in succ[i]:
            cand = base if nb < 0 or proc[j] == p else base + (lat + bt * nb)
            if cand > tl[j]:
                tl[j] = cand
        work[p] += w
        if t < min_top[p]:
            min_top[p] = t
        b = bl[i]
        if b - w < min_tail[p]:
            min_tail[p] = b - w
        if b > bl_top:
            top, bl_top = i, b

    out = [Bound(
        "pt", bl_top, "critical-path",
        f"longest mapped path starts at task {gi.names[top]!r}",
    )]
    if num_procs:
        busiest = max(range(num_procs), key=work.__getitem__)
        out.append(Bound(
            "pt", work[busiest], "processor-work",
            f"serial work of P{busiest}",
        ))
    best_win, best_p = -1.0, -1
    for p in range(num_procs):
        if min_top[p] == inf:
            continue  # no tasks on p
        win = min_top[p] + work[p] + min_tail[p]
        if win > best_win:
            best_win, best_p = win, p
    if best_p >= 0:
        out.append(Bound(
            "pt", best_win, "processor-window",
            f"P{best_p}: min top {min_top[best_p]:g} + work "
            f"{work[best_p]:g} + min tail {min_tail[best_p]:g}",
        ))
    return out


def time_bounds(
    graph: TaskGraph,
    assignment: Mapping[str, int],
    num_procs: int,
    comm: CommModel = UNIT_COMM,
) -> list[Bound]:
    """All certified PT lower bounds under ``assignment`` + ``comm``.

    Equivalent to b-/t-levels under
    ``mapped_edge_cost(assignment, size_edge_cost(...))`` (the RCP
    priority metric).  Without a placement there is no mapping index to
    memoise on, so the b-levels come straight from
    :func:`~repro.core.rcp.rcp_priorities`; :func:`certified_bounds`
    shares the mapping's memoised table instead.
    """
    gi = graph_index(graph)
    proc = check_assignment(gi.names, num_procs, assignment)
    bl = rcp.rcp_priorities(graph, proc, comm)
    return _time_candidates(gi, proc, bl, num_procs, comm)


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------


def _forest_parent(gi: GraphIndex) -> Optional[list[int]]:
    """Task id -> its unique successor's id (``-1`` at a root), or
    ``None`` unless every task has at most one successor."""

    def build() -> Optional[list[int]]:
        if any(len(row) > 1 for row in gi.succ):
            return None
        return [row[0][0] if row else -1 for row in gi.succ]

    return gi.memo("forest-parent", build)


def _forced_objects(
    proc: list[int],
    accessors_of: dict[tuple[int, int], list[int]],
    parent: list[int],
) -> dict[int, set[int]]:
    """Forest forced-spanning sets: task id -> ids of the volatile
    objects the DAG pins resident on the task's processor while it runs.

    In a forest the strict ancestors of ``u`` are exactly its successor
    chain, so an object with processor-``p`` accessors ``u`` ≺ ``w``
    forces every ``p``-task on the chain strictly between them — the
    object's life span (Definition 4) covers the whole window in every
    valid execution order.  Such a task never accesses the object
    itself: it would be one of the accessors.
    """
    forced: dict[int, set[int]] = {}
    for (p, o), accessors in accessors_of.items():
        if len(accessors) < 2:
            continue
        aset = set(accessors)
        for u in accessors:
            buf: list[int] = []
            c = parent[u]
            while c >= 0:
                if c in aset:
                    for b in buf:
                        if proc[b] == p:
                            forced.setdefault(b, set()).add(o)
                    buf = []
                else:
                    buf.append(c)
                c = parent[c]
    return forced


def _forced_span_bound(
    gi: GraphIndex,
    mi: MappingIndex,
    parent: list[int],
    volas: list[int],
) -> Optional[Bound]:
    """The forest refinement, scored on top of the residency holds.

    Only an object with two volatile accessors on one processor can
    span a task, so only such objects' chains are walked.
    """
    proc, vola_oids = mi.proc, mi.vola_oids
    accessors_of: dict[tuple[int, int], list[int]] = {}
    for i in gi.topo:
        p = proc[i]
        for o in vola_oids[i]:
            accessors_of.setdefault((p, o), []).append(i)
    forced = _forced_objects(proc, accessors_of, parent)
    size, perm_bytes = gi.oid_size, mi.perm_bytes
    fbest, fi = -1, -1
    fextra = 0
    for i, objs in forced.items():
        extra = sum(size[o] for o in objs)
        if not extra:
            continue
        val = perm_bytes[proc[i]] + volas[i] + extra
        if val > fbest:
            fbest, fi, fextra = val, i, extra
    if fi < 0:
        return None
    p = proc[fi]
    return Bound(
        "min_mem", float(fbest), "forced-span",
        f"task {gi.names[fi]!r} on P{p}: permanent "
        f"{perm_bytes[p]:g} + accessed volatiles {volas[fi]:g} + "
        f"forced spans {fextra:g} bytes (forest life spans, "
        "Definition 4)",
    )


def _memory_candidates(gi: GraphIndex, mi: MappingIndex) -> list[Bound]:
    """The MIN_MEM bounds of one mapping: PERM(p) bytes (Definition 3)
    and each task's volatile residency from the mapping index, scored
    in topological order (first maximum wins)."""
    out: list[Bound] = []
    perm_bytes = mi.perm_bytes
    if mi.num_procs:
        heavy = max(range(mi.num_procs), key=perm_bytes.__getitem__)
        out.append(Bound(
            "min_mem", float(perm_bytes[heavy]), "permanent-set",
            f"accessed permanent set of P{heavy} (Definition 3)",
        ))
    if not gi.topo:
        return out
    size, proc = gi.oid_size, mi.proc
    volas = [sum(map(size.__getitem__, row)) for row in mi.vola_oids]
    best, best_i = -1, -1
    for i in gi.topo:
        val = perm_bytes[proc[i]] + volas[i]
        if val > best:
            best, best_i = val, i
    p = proc[best_i]
    out.append(Bound(
        "min_mem", float(best), "residency-hold",
        f"task {gi.names[best_i]!r} on P{p}: permanent "
        f"{perm_bytes[p]:g} + accessed volatiles {volas[best_i]:g} "
        "bytes (Definitions 3-4)",
    ))
    parent = _forest_parent(gi)
    if parent is not None:
        fb = _forced_span_bound(gi, mi, parent, volas)
        if fb is not None:
            out.append(fb)
    return out


def memory_bounds(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
) -> list[Bound]:
    """All certified MIN_MEM lower bounds under ``placement``.

    PERM(p) and each task's volatile residency come from the mapping's
    shared :class:`~repro.core.index.MappingIndex`; the forest
    refinement only walks successor chains for objects that actually
    have two same-processor accessors.
    """
    gi = graph_index(graph)
    return _memory_candidates(gi, gi.mapping(placement, assignment))


# ----------------------------------------------------------------------
# combined entry points
# ----------------------------------------------------------------------


def certified_bounds(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    comm: CommModel = UNIT_COMM,
) -> BoundSet:
    """Best certified PT and MIN_MEM lower bounds plus all candidates.

    The mapping index is looked up once and shared by the time and
    memory sides — this combined entry point is the one the sweep, the
    gap scorecard and the benchmark pay for.  The result depends only
    on the mapping and ``comm``, so it is memoised on the mapping index
    under ``("bounds", comm)``: every ordering of one mapping gets the
    same (frozen) :class:`BoundSet`.  Raises
    :class:`~repro.errors.SchedulingError` for a task without a
    processor in ``[0, P)`` and :class:`~repro.errors.PlacementError`
    for an accessed object without an owner.
    """
    gi = graph_index(graph)
    mi = gi.mapping(placement, assignment)
    return mi.memo(("bounds", comm),
                   lambda: _bound_set(graph, comm, gi, mi))


def _bound_set(
    graph: TaskGraph, comm: CommModel, gi: GraphIndex, mi: MappingIndex,
) -> BoundSet:
    """:func:`certified_bounds`, computed (not memoised) on the graph's
    index ``gi`` and the mapping's index ``mi``."""
    bl = rcp.mapping_b_levels(graph, mi, comm)
    t_cands = _time_candidates(gi, mi.proc, bl, mi.num_procs, comm)
    m_cands = _memory_candidates(gi, mi)
    pt = t_cands[0]
    for b in t_cands:
        if b.value > pt.value:
            pt = b
    if m_cands:
        mm = m_cands[0]
        for b in m_cands:
            if b.value > mm.value:
                mm = b
    else:
        mm = Bound("min_mem", 0.0, "permanent-set", "empty graph")
    return BoundSet(pt=pt, min_mem=mm, candidates=tuple(t_cands + m_cands))


def schedule_bounds(schedule: Schedule, comm: CommModel = UNIT_COMM) -> BoundSet:
    """Certified bounds for a schedule's graph/placement/assignment
    (the per-processor orders are *not* consulted — the bounds hold for
    every valid ordering of the same assignment)."""
    return certified_bounds(
        schedule.graph, schedule.placement, schedule.assignment, comm
    )


# ----------------------------------------------------------------------
# the SA4xx pass
# ----------------------------------------------------------------------


def bounds_pass(ctx) -> list[Diagnostic]:
    """Certified-bound pass (opt-in; ``analyze_schedule(bounds=True)``).

    Emits one ``SA401`` advisory carrying both certificates, and hard
    errors when the schedule's *reported* numbers undercut a certified
    bound — which can only mean a corrupt cost model or plan:

    * ``SA402`` — predicted PT (same comm model) below the PT bound;
    * ``SA403`` — the profile's MIN_MEM below the memory bound.
    """
    comm = ctx.comm if getattr(ctx, "comm", None) is not None else UNIT_COMM
    bs = schedule_bounds(ctx.schedule, comm)
    diags = [Diagnostic.of(
        "SA401",
        f"certified lower bounds: PT >= {bs.pt.value:g} "
        f"({bs.pt.method}), MIN_MEM >= {bs.min_mem.value:g} "
        f"({bs.min_mem.method})",
        witness=bs.describe(),
    )]

    try:
        reported_pt = gantt(ctx.schedule, comm).makespan
    except SchedulingError:
        reported_pt = None  # order cycle; SA304 owns that finding
    if reported_pt is not None:
        slack = _REL_EPS * max(1.0, abs(bs.pt.value))
        if reported_pt < bs.pt.value - slack:
            diags.append(Diagnostic.of(
                "SA402",
                f"reported PT {reported_pt:g} undercuts the certified "
                f"lower bound {bs.pt.value:g} ({bs.pt.method}); the cost "
                "model or plan is corrupt",
                witness=str(bs.pt),
            ))

    min_mem = ctx.profile.min_mem
    slack = _REL_EPS * max(1.0, abs(bs.min_mem.value))
    if min_mem < bs.min_mem.value - slack:
        diags.append(Diagnostic.of(
            "SA403",
            f"profiled MIN_MEM {min_mem:g} undercuts the certified "
            f"lower bound {bs.min_mem.value:g} ({bs.min_mem.method}); "
            "the memory profile is corrupt",
            witness=str(bs.min_mem),
        ))
    return diags

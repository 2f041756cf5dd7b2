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

Cost discipline: the assignment-independent shape of the problem (topo
order, weights, edge byte counts, access triples) is a
:class:`_GraphIndex` memoised on the graph's shared
:class:`~repro.core.index.GraphIndex` — the same
build-once-query-many contract as ``CompiledSchedule.plan_for`` — so a
query pays only for the placement/assignment-dependent part.  Small
graphs run a plain-Python path (numpy call overhead would dominate
them); graphs with ≥ :data:`_NUMPY_MIN_TASKS` tasks vectorise the edge
costs, the per-processor aggregates and the whole residency sweep.
The benchmark section ``bounds`` of ``benchmarks/bench_sweep_engine.py``
gates the pass ≥10x cheaper than a full ``analyze_schedule`` run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from ..core.index import graph_index
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

#: Below this many tasks the plain-Python path wins: a query is a few
#: dozen list operations and numpy's per-call overhead would exceed the
#: whole computation.  Tests pin both paths to the same values.
_NUMPY_MIN_TASKS = 128


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
# the per-graph index
# ----------------------------------------------------------------------


class _GraphIndex:
    """Assignment-independent shape of one task graph, in index space.

    Everything here is a pure function of the (frozen, immutable) graph:
    the topological numbering, task weights, out-edge rows with data
    byte counts (``-1.0`` marks a synchronisation edge, which is free
    under every mapping), the forest parent vector when each task has
    at most one successor, and the flattened access triples.  A bounds
    query combines this with a placement/assignment, which is the only
    per-call work.
    """

    __slots__ = (
        "topo", "n", "w_l", "rows", "par", "forest",
        "objs", "size", "acc_rows", "acc_triples",
        "w", "esrc", "edst", "enb", "obj_size", "a_src", "a_oid",
    )

    def __init__(self, graph: TaskGraph) -> None:
        topo = graph.topological_order()
        n = len(topo)
        self.topo = topo
        self.n = n
        idx = {name: i for i, name in enumerate(topo)}
        task_of = graph.task
        w = np.empty(n)
        for i, name in enumerate(topo):
            w[i] = task_of(name).weight
        self.w = w
        self.w_l = w.tolist()

        osize = graph.object_size
        self.size = osize
        smap = graph.successor_map()
        esrc: list[int] = []
        edst: list[int] = []
        enb: list[float] = []
        rows: list[tuple[tuple[int, float], ...]] = []
        forest = True
        for i, name in enumerate(topo):
            inner = smap[name]
            if len(inner) > 1:
                forest = False
            row = []
            for v, objs in inner.items():
                j = idx[v]
                nb = float(sum(osize[o] for o in objs)) if objs else -1.0
                esrc.append(i)
                edst.append(j)
                enb.append(nb)
                row.append((j, nb))
            rows.append(tuple(row))
        self.rows = tuple(rows)
        self.forest = forest
        self.esrc = np.array(esrc, dtype=np.int64)
        self.edst = np.array(edst, dtype=np.int64)
        self.enb = np.array(enb)
        if forest:
            # Parent vector with sentinel slot ``n`` for the roots, so
            # the chain recurrences run branch-free.
            par = [n] * n
            for k, i in enumerate(esrc):
                par[i] = edst[k]
            self.par: Optional[list[int]] = par
        else:
            self.par = None

        objs = sorted(osize)
        self.objs = objs
        oidx = {o: k for k, o in enumerate(objs)}
        self.obj_size = np.array([float(osize[o]) for o in objs])
        a_src: list[int] = []
        a_oid: list[int] = []
        acc_rows: list[tuple[str, ...]] = []
        acc_triples: list[tuple[tuple[int, float, str], ...]] = []
        for i, name in enumerate(topo):
            acc = task_of(name).accesses
            acc_rows.append(acc)
            acc_triples.append(
                tuple((oidx[o], float(osize[o]), o) for o in acc))
            for o in acc:
                a_src.append(i)
                a_oid.append(oidx[o])
        self.acc_rows = tuple(acc_rows)
        self.acc_triples = tuple(acc_triples)
        self.a_src = np.array(a_src, dtype=np.int64)
        self.a_oid = np.array(a_oid, dtype=np.int64)


def _graph_index(graph: TaskGraph) -> _GraphIndex:
    """The bounds view of ``graph``, memoised on its shared
    :class:`~repro.core.index.GraphIndex` (dies with the graph; unfrozen
    graphs are never cached)."""
    return graph_index(graph).memo("bounds", lambda: _GraphIndex(graph))


# ----------------------------------------------------------------------
# time
# ----------------------------------------------------------------------


def _levels_rows(
    ix: _GraphIndex, proc_l: list[int], lat: float, bt: float
) -> tuple[list[float], list[float]]:
    """b-/t-levels via the generic per-node edge rows (any DAG).

    A data edge between processors costs ``latency + byte_time *
    bytes``; everything else is free.  The cost expression is inlined
    in both sweeps — rebuilding per-edge cost rows costs more than the
    two extra float operations per edge.
    """
    n = ix.n
    w_l = ix.w_l
    rows = ix.rows
    bl = w_l.copy()
    for i in range(n - 1, -1, -1):
        pu = proc_l[i]
        best = 0.0
        for j, nb in rows[i]:
            c = 0.0 if nb < 0.0 or proc_l[j] == pu else lat + bt * nb
            cand = c + bl[j]
            if cand > best:
                best = cand
        bl[i] += best
    tl = [0.0] * n
    for i in range(n):
        pu = proc_l[i]
        base = tl[i] + w_l[i]
        for j, nb in rows[i]:
            c = 0.0 if nb < 0.0 or proc_l[j] == pu else lat + bt * nb
            cand = base + c
            if cand > tl[j]:
                tl[j] = cand
    return bl, tl


def _levels_forest(
    ix: _GraphIndex, proc, lat: float, bt: float
) -> tuple[list[float], list[float]]:
    """b-/t-levels on a forest: one branch-free chain sweep each way.

    Each task has a single successor, so the max over out-edges
    degenerates to one addition along the parent chain; the edge costs
    vectorise because edge ``k`` is the unique out-edge of ``esrc[k]``.
    The sums associate exactly as in :func:`_levels_rows` (``w + (c +
    bl)`` and ``(tl + w) + c``), so both paths return equal floats.
    """
    n = ix.n
    cross = (proc[ix.esrc] != proc[ix.edst]) & (ix.enb >= 0.0)
    cost = np.where(cross, lat + ix.enb * bt, 0.0)
    cnode = np.zeros(n)
    cnode[ix.esrc] = cost
    c_l = cnode.tolist()
    w_l = ix.w_l
    par = ix.par
    assert par is not None
    bl = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        bl[i] = w_l[i] + (c_l[i] + bl[par[i]])
    tl = [0.0] * (n + 1)
    for i in range(n):
        v = (tl[i] + w_l[i]) + c_l[i]
        p_ = par[i]
        if v > tl[p_]:
            tl[p_] = v
    return bl[:n], tl[:n]


def _time_candidates(
    ix: _GraphIndex,
    proc_l: list[int],
    proc,  # np.ndarray when the vectorised path is active, else None
    num_procs: int,
    comm: CommModel,
) -> list[Bound]:
    """The three PT bounds given a resolved processor labelling."""
    n = ix.n
    if not n:
        return [Bound("pt", 0.0, "critical-path", "empty graph")]
    lat, bt = comm.latency, comm.byte_time
    inf = float("inf")
    if proc is not None:
        if ix.forest:
            bl, tl = _levels_forest(ix, proc, lat, bt)
        else:
            bl, tl = _levels_rows(ix, proc_l, lat, bt)
        bl_a = np.asarray(bl)
        tl_a = np.asarray(tl)
        top = int(bl_a.argmax())
        bl_top = float(bl_a[top])
        work = np.bincount(proc, weights=ix.w, minlength=num_procs)
        min_top = np.full(num_procs, inf)
        np.minimum.at(min_top, proc, tl_a)
        min_tail = np.full(num_procs, inf)
        np.minimum.at(min_tail, proc, bl_a - ix.w)
        work_l = work.tolist()
        min_top_l = min_top.tolist()
        min_tail_l = min_tail.tolist()
    else:
        bl, tl = _levels_rows(ix, proc_l, lat, bt)
        top = max(range(n), key=bl.__getitem__)
        bl_top = bl[top]
        work_l = [0.0] * num_procs
        min_top_l = [inf] * num_procs
        min_tail_l = [inf] * num_procs
        w_l = ix.w_l
        for i in range(n):
            p = proc_l[i]
            w = w_l[i]
            work_l[p] += w
            if tl[i] < min_top_l[p]:
                min_top_l[p] = tl[i]
            tail = bl[i] - w
            if tail < min_tail_l[p]:
                min_tail_l[p] = tail

    out = [Bound(
        "pt", bl_top, "critical-path",
        f"longest mapped path starts at task {ix.topo[top]!r}",
    )]
    if num_procs:
        busiest = max(range(num_procs), key=work_l.__getitem__)
        out.append(Bound(
            "pt", work_l[busiest], "processor-work",
            f"serial work of P{busiest}",
        ))
    best_win, best_p = -1.0, -1
    for p in range(num_procs):
        if min_top_l[p] == inf:
            continue  # no tasks on p
        win = min_top_l[p] + work_l[p] + min_tail_l[p]
        if win > best_win:
            best_win, best_p = win, p
    if best_p >= 0:
        out.append(Bound(
            "pt", best_win, "processor-window",
            f"P{best_p}: min top {min_top_l[best_p]:g} + work "
            f"{work_l[best_p]:g} + min tail {min_tail_l[best_p]:g}",
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
    priority metric), but computed over the memoised
    :class:`_GraphIndex` — the microseconds-scale budget of the pass
    forbids the per-edge closure stack of :mod:`repro.graph.analysis`.
    """
    ix = _graph_index(graph)
    proc_l = list(map(assignment.__getitem__, ix.topo))
    proc = (np.array(proc_l, dtype=np.int64)
            if ix.n >= _NUMPY_MIN_TASKS else None)
    return _time_candidates(ix, proc_l, proc, num_procs, comm)


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------


def _forest_parent_names(ix: _GraphIndex) -> dict[str, Optional[str]]:
    """The forest's unique-successor map, by task name."""
    topo, par, n = ix.topo, ix.par, ix.n
    assert par is not None
    return {
        topo[i]: (topo[par[i]] if par[i] < n else None) for i in range(n)
    }


def _forced_objects(
    assignment: Mapping[str, int],
    accessors_of: dict[tuple[int, str], list[str]],
    parent: dict[str, Optional[str]],
) -> dict[str, set[str]]:
    """Forest forced-spanning sets: task -> volatile objects the DAG
    pins resident on the task's processor while it runs.

    In a forest the strict ancestors of ``u`` are exactly its successor
    chain, so an object with processor-``p`` accessors ``u`` ≺ ``w``
    forces every ``p``-task on the chain strictly between them — the
    object's life span (Definition 4) covers the whole window in every
    valid execution order.
    """
    forced: dict[str, set[str]] = {}
    for (p, o), accessors in accessors_of.items():
        if len(accessors) < 2:
            continue
        aset = set(accessors)
        for u in accessors:
            buf: list[str] = []
            c = parent[u]
            while c is not None:
                if c in aset:
                    for b in buf:
                        if assignment[b] == p:
                            forced.setdefault(b, set()).add(o)
                    buf = []
                else:
                    buf.append(c)
                c = parent[c]
    return forced


def _forced_span_bound(
    ix: _GraphIndex,
    assignment: Mapping[str, int],
    accessors_of: dict[tuple[int, str], list[str]],
    procs: list[int],
    volas: list[float],
    perm_bytes: list[float],
) -> Optional[Bound]:
    """The forest refinement, scored on top of the residency holds."""
    size = ix.size
    parent = _forest_parent_names(ix)
    forced = _forced_objects(assignment, accessors_of, parent)
    index = {name: i for i, name in enumerate(ix.topo)}
    fbest, fi = -1.0, -1
    fextra = 0.0
    for name, objs in forced.items():
        i = index[name]
        accessed = set(ix.acc_rows[i])
        extra = sum(size[o] for o in objs if o not in accessed)
        if not extra:
            continue
        val = perm_bytes[procs[i]] + volas[i] + extra
        if val > fbest:
            fbest, fi, fextra = val, i, extra
    if fi < 0:
        return None
    p = procs[fi]
    return Bound(
        "min_mem", float(fbest), "forced-span",
        f"task {ix.topo[fi]!r} on P{p}: permanent "
        f"{perm_bytes[p]:g} + accessed volatiles {volas[fi]:g} + "
        f"forced spans {fextra:g} bytes (forest life spans, "
        "Definition 4)",
    )


def _memory_finish(
    ix: _GraphIndex,
    assignment: Mapping[str, int],
    num_procs: int,
    perm_bytes: list[float],
    volas,  # list[float] | np.ndarray
    procs,  # list[int] | np.ndarray
    multi_accessor: bool,
    accessors_of: Optional[dict[tuple[int, str], list[str]]],
) -> list[Bound]:
    """Turn the residency aggregates into MIN_MEM bounds."""
    out: list[Bound] = []
    if num_procs:
        heavy = max(range(num_procs), key=perm_bytes.__getitem__)
        out.append(Bound(
            "min_mem", float(perm_bytes[heavy]), "permanent-set",
            f"accessed permanent set of P{heavy} (Definition 3)",
        ))
    if isinstance(volas, np.ndarray):
        # Vectorised argmax; ``argmax`` keeps the first maximum, the
        # same tie-break as the strict ``>`` of the scalar loop.
        if len(volas):
            vals = np.asarray(perm_bytes)[procs] + volas
            best_i = int(vals.argmax())
            best = float(vals[best_i])
        else:
            best, best_i = -1.0, -1
    else:
        best, best_i = -1.0, -1
        for i, p in enumerate(procs):
            val = perm_bytes[p] + volas[i]
            if val > best:
                best, best_i = val, i
    if best_i >= 0:
        p = procs[best_i]
        out.append(Bound(
            "min_mem", float(best), "residency-hold",
            f"task {ix.topo[best_i]!r} on P{p}: permanent "
            f"{perm_bytes[p]:g} + accessed volatiles {volas[best_i]:g} "
            "bytes (Definitions 3-4)",
        ))
    if best_i >= 0 and multi_accessor and ix.forest and accessors_of:
        fb = _forced_span_bound(
            ix, assignment, accessors_of, procs, volas, perm_bytes)
        if fb is not None:
            out.append(fb)
    return out


def _memory_candidates(
    ix: _GraphIndex,
    proc_l: list[int],
    proc,  # np.ndarray when the vectorised path is active, else None
    placement: Placement,
    assignment: Mapping[str, int],
) -> list[Bound]:
    """The MIN_MEM bounds given a resolved processor labelling."""
    num_procs = placement.num_procs
    owner = placement.owner
    n = ix.n
    if proc is not None:
        owner_a = np.array(
            list(map(owner.__getitem__, ix.objs)), dtype=np.int64)
        a_src, a_oid = ix.a_src, ix.a_oid
        ap = proc[a_src]
        is_perm = owner_a[a_oid] == ap
        obj_size = ix.obj_size
        vola_pair = np.where(is_perm, 0.0, obj_size[a_oid])
        vola = np.bincount(a_src, weights=vola_pair, minlength=n)
        perm_mask = np.zeros(len(ix.objs), dtype=bool)
        perm_mask[a_oid[is_perm]] = True  # scatter: no sort-based unique
        perm = np.bincount(
            owner_a[perm_mask], weights=obj_size[perm_mask],
            minlength=num_procs)
        multi = False
        accessors_of = None
        vkeys = a_oid[~is_perm] * max(num_procs, 1) + ap[~is_perm]
        if len(vkeys):
            multi = bool((np.bincount(vkeys) >= 2).any())
        if multi and ix.forest:
            accessors_of = {}
            topo, objs = ix.topo, ix.objs
            vmask = (~is_perm).nonzero()[0]
            for k in vmask.tolist():
                key = (int(ap[k]), objs[a_oid[k]])
                accessors_of.setdefault(key, []).append(topo[a_src[k]])
        return _memory_finish(
            ix, assignment, num_procs, perm.tolist(), vola,
            proc, multi, accessors_of)

    #: owner resolved once per *object*, then looked up per access by
    #: integer id — cheaper than a dict probe per access pair.
    own_l = list(map(owner.__getitem__, ix.objs))
    perm_seen: list[set[int]] = [set() for _ in range(num_procs)]
    perm_bytes = [0.0] * num_procs
    volas: list[float] = []
    #: only forests can use the forced-span refinement, so only they
    #: pay for the accessor bookkeeping.
    track = ix.forest
    multi = False
    accessors_of: dict[tuple[int, str], list[str]] = {}
    topo, acc_triples = ix.topo, ix.acc_triples
    for i in range(n):
        p = proc_l[i]
        vb = 0.0
        for oid, sz, o in acc_triples[i]:
            if own_l[oid] == p:
                seen = perm_seen[p]
                if oid not in seen:
                    seen.add(oid)
                    perm_bytes[p] += sz
            else:
                vb += sz
                if track:
                    prev = accessors_of.setdefault((p, o), [])
                    prev.append(topo[i])
                    if len(prev) > 1:
                        multi = True
        volas.append(vb)
    return _memory_finish(
        ix, assignment, num_procs, perm_bytes, volas, proc_l, multi,
        accessors_of)


def memory_bounds(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
) -> list[Bound]:
    """All certified MIN_MEM lower bounds under ``placement``.

    One sweep over the access lists derives PERM(p) (Definition 3) and
    each task's volatile residency; the forest refinement only walks
    successor chains for objects that actually have two same-processor
    accessors.
    """
    ix = _graph_index(graph)
    proc_l = list(map(assignment.__getitem__, ix.topo))
    proc = (np.array(proc_l, dtype=np.int64)
            if ix.n >= _NUMPY_MIN_TASKS else None)
    return _memory_candidates(ix, proc_l, proc, placement, assignment)


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

    The graph index and the processor labelling are resolved once and
    shared by the time and memory sides — this combined entry point is
    the one the sweep, the gap scorecard and the benchmark pay for.
    """
    ix = _graph_index(graph)
    proc_l = list(map(assignment.__getitem__, ix.topo))
    proc = (np.array(proc_l, dtype=np.int64)
            if ix.n >= _NUMPY_MIN_TASKS else None)
    t_cands = _time_candidates(ix, proc_l, proc, placement.num_procs, comm)
    m_cands = _memory_candidates(ix, proc_l, proc, placement, assignment)
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

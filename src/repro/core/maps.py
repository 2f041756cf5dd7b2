"""Static planning of Memory Allocation Points (MAPs) — section 3.3.

MAPs are positions between consecutive tasks of a processor's schedule.
Each MAP:

1. **frees** the volatile objects that will not be accessed after the
   current point (their dead points come from the static liveness
   analysis of :mod:`repro.core.liveness`);
2. **allocates** volatile space for the tasks that follow, walking the
   execution chain ``T_1, T_2, ...`` and stopping after ``T_k`` when the
   space for ``T_{k+1}`` cannot be allocated — the next MAP is placed
   right before ``T_{k+1}``;
3. **assembles address packages** for the collaborating processors: for
   every newly allocated volatile object, the object's owner (its
   producer under owner-compute) must learn the local address before it
   can deposit data with an RMA put.

The first MAP is always at the beginning of each processor's schedule.
Because freeing happens eagerly at every MAP, a schedule is executable
exactly when ``capacity >= MIN_MEM`` (Definition 6) — the planner and
:func:`repro.core.liveness.analyze_memory` agree by construction, and the
property tests assert it.

With unconstrained memory the plan has a single MAP per processor, which
models the *original* RAPID strategy ("each processor allocates its
volatile space at once and notifies object addresses") whose cost the
100% columns of Tables 2/3 measure.

The planner emits the id tables the compiled engine runs
(:class:`MapTables`); the names are a view over them.  A plan the
planner did not make is checked once, by the static memory pass's
replay (:func:`plan_findings`), before either engine runs it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from ..errors import CapacityError, NonExecutableScheduleError, SimulationError
from .index import graph_index
from .liveness import MemoryProfile
from .schedule import Schedule


@dataclass(frozen=True)
class MapPoint:
    """One memory allocation point on one processor, by name (lists
    given to the constructor are kept as tuples, the notifications as a
    read-only mapping of tuples)."""

    proc: int
    #: The MAP sits immediately before ``orders[proc][position]``; the
    #: initial MAP has position 0.
    position: int
    #: Volatile objects freed here (dead before ``position``).
    frees: tuple[str, ...] = ()
    #: Volatile objects allocated here, in first-use order.
    allocs: tuple[str, ...] = ()
    #: Owner processor -> volatile objects whose fresh addresses must be
    #: notified to it (it will RMA-put their contents here).
    notifications: Mapping[int, tuple[str, ...]] = field(default_factory=dict)
    #: Last task position whose volatiles this MAP allocated (set on
    #: planner output; ``None`` on hand-built points).
    covers_through: Optional[int] = None

    def __post_init__(self):
        for f in ("frees", "allocs"):
            object.__setattr__(self, f, tuple(getattr(self, f)))
        object.__setattr__(self, "notifications", MappingProxyType({
            d: tuple(objs) for d, objs in self.notifications.items()}))

    def __reduce__(self):  # a mapping proxy does not pickle
        return (MapPoint, (self.proc, self.position, self.frees, self.allocs,
                           dict(self.notifications), self.covers_through))


class MapTables(NamedTuple):
    """A MAP plan in ids (absolute positions in the profile's numbering,
    oids): the tables the compiled engine runs.  Processor ``p``'s MAPs
    are ``map_first[p]..map_first[p + 1] - 2``, by position, then its
    end-of-order sentinel (position ``proc_start[p + 1]``, no actions).
    MAP ``k`` frees ``mf_oid[mf_ptr[k]:mf_ptr[k + 1]]``, allocates
    ``ma_oid`` likewise and sends packages ``mp_ptr[k]..mp_ptr[k + 1] - 1``
    by ascending destination, package ``j`` from ``pkg_src[j]`` to
    ``pkg_dst[j]`` with ``pkg_oid[pkg_ptr[j]:pkg_ptr[j + 1]]``."""

    map_first: list[int]
    map_pos: list[int]
    mf_ptr: list[int]
    mf_oid: list[int]
    ma_ptr: list[int]
    ma_oid: list[int]
    mp_ptr: list[int]
    pkg_src: list[int]
    pkg_dst: list[int]
    pkg_ptr: list[int]
    pkg_oid: list[int]

    @classmethod
    def of(cls, rows, proc_start) -> "MapTables":
        """The tables of ``rows[p]``: processor ``p``'s MAPs in position
        order, each ``(position, free oids, alloc oids, [(dst, oids)])``."""
        t = cls([], [], [0], [], [0], [], [0], [], [], [0], [])
        first, at, mf_ptr, mf_oid, ma_ptr, ma_oid, mp_ptr, src, dst, \
            pkg_ptr, pkg_oid = t
        for p, maps in enumerate(rows):
            first.append(len(at))
            end = proc_start[p + 1] - proc_start[p]
            for pos, frees, allocs, packages in [*maps, (end, (), (), ())]:
                at.append(proc_start[p] + pos)
                mf_oid += frees
                mf_ptr.append(len(mf_oid))
                ma_oid += allocs
                ma_ptr.append(len(ma_oid))
                for d, oids in packages:
                    src.append(p)
                    dst.append(d)
                    pkg_oid += oids
                    pkg_ptr.append(len(pkg_oid))
                mp_ptr.append(len(dst))
        first.append(len(at))
        return t


#: Rules whose findings make the machine refuse a plan: the memory
#: pass reports them as errors (``SA203``/``SA204`` are warnings).
REFUSED_RULES = frozenset(
    ("SA101", "SA102", "SA201", "SA202", "SA205", "SA206", "SA207"))

_UNCHECKED = Ellipsis  # a singleton, so a pickled plan keeps it


class MapPlan:
    """MAP positions and actions for a whole schedule under a capacity,
    with the profile it was made from.

    :attr:`tables` is what the compiled engine runs, :attr:`points` a
    read-only name view, built from :func:`plan_maps`' tables when first
    read.  A hand-built ``MapPlan(capacity=, points=, profile=)`` holds
    its points and is checked (:meth:`check`) and converted once."""

    __slots__ = ("_capacity", "_profile", "_points", "_tables", "_refusal")

    def __init__(self, capacity: int, points, profile: MemoryProfile, *,
                 _tables: Optional[MapTables] = None):
        self._capacity, self._profile = capacity, profile
        if _tables is None:  # else plan_maps' output, valid by construction
            self._points = tuple(tuple(pts) for pts in points)
            self._refusal = _UNCHECKED
        else:
            self._points = self._refusal = None
        self._tables = _tables

    # Read-only: the tables and the check's verdict hold for these.
    capacity = property(lambda self: self._capacity)
    profile = property(lambda self: self._profile)

    @property
    def schedule(self) -> Schedule:
        return self.profile.schedule

    @property
    def points(self) -> tuple[tuple[MapPoint, ...], ...]:
        """Per-processor MAPs in execution order, by name."""
        if self._points is None:
            self._points = _points_of(self)
        return self._points

    @property
    def tables(self) -> MapTables:
        """The id tables; a hand-built plan is checked first."""
        if self._tables is None:
            self.check()
            oid = graph_index(self.schedule.graph).oid
            rows = [[(mp.position, [oid[o] for o in mp.frees],
                      [oid[o] for o in mp.allocs],
                      [(d, [oid[o] for o in objs])
                       for d, objs in sorted(mp.notifications.items())])
                     for mp in sorted(pts, key=lambda mp: mp.position)]
                    for pts in self.points]
            self._tables = MapTables.of(rows, self.profile.proc_start)
        return self._tables

    def check(self) -> None:
        """Raise :class:`~repro.errors.SimulationError` with the message
        of the plan's first memory-pass error (:data:`REFUSED_RULES`),
        as both engines do; the verdict is memoised."""
        if self._refusal is _UNCHECKED:
            head, chains = plan_findings(self.profile, self.capacity, self)
            self._refusal = next((f.message for f in head + chains
                                  if f.rule in REFUSED_RULES), None)
        if self._refusal is not None:
            raise SimulationError(self._refusal)

    def _ranges(self) -> list[range]:
        """Per processor, the table range of its MAPs (no sentinel)."""
        first = self.tables.map_first
        return [range(first[p], first[p + 1] - 1)
                for p in range(len(first) - 1)]

    @property
    def maps_per_proc(self) -> list[int]:
        return [len(r) for r in self._ranges()]

    @property
    def avg_maps(self) -> float:
        """Average number of MAPs per processor (the ``#MAPs`` columns of
        Tables 2/3/5).  Processors with no tasks are excluded."""
        counts = [n for n, order in zip(self.maps_per_proc, self.schedule.orders)
                  if order]
        return sum(counts) / len(counts) if counts else 0.0

    @property
    def total_allocations(self) -> int:
        return len(self.tables.ma_oid)

    @property
    def total_frees(self) -> int:
        return len(self.tables.mf_oid)

    @property
    def total_packages(self) -> int:
        """Number of address packages sent (one per MAP per destination)."""
        return len(self.tables.pkg_dst)

    def map_positions(self, proc: int) -> list[int]:
        start = self.profile.proc_start[proc]
        return [self.tables.map_pos[k] - start for k in self._ranges()[proc]]

    def predicted_peaks(self) -> list[int]:
        """Statically predicted per-processor peak memory of *executing*
        this plan: permanent bytes plus the high-water of replaying each
        MAP's frees-then-allocs.

        Because a MAP frees before it allocates and allocations only
        grow the footprint until the next MAP, the running total after
        each MAP's allocations is the exact peak between MAPs.  The
        dynamic execution must observe exactly these peaks — the
        :class:`~repro.obs.instruments.MemoryTimeline` instrument's
        high-water marks are asserted equal in the property tests.  At
        ``capacity == MIN_MEM`` the maximum over processors equals the
        liveness-derived ``MEM_REQ`` peak (Definition 5)."""
        t = self.tables
        size = graph_index(self.schedule.graph).oid_size
        peaks: list[int] = []
        for pp, ks in zip(self.profile.procs, self._ranges()):
            used = peak = pp.perm_bytes
            for k in ks:
                used -= sum(size[o] for o in t.mf_oid[t.mf_ptr[k]:t.mf_ptr[k + 1]])
                used += sum(size[o] for o in t.ma_oid[t.ma_ptr[k]:t.ma_ptr[k + 1]])
                peak = max(peak, used)
            peaks.append(peak)
        return peaks


def _points_of(plan: MapPlan) -> tuple[tuple[MapPoint, ...], ...]:
    """The name view of planner tables: a MAP covers the tasks up to
    the next MAP (or the sentinel)."""
    t = plan.tables
    name = graph_index(plan.schedule.graph).object_names

    def names(oids, ptr, k):
        return tuple(name[o] for o in oids[ptr[k]:ptr[k + 1]])

    return tuple(tuple(
        MapPoint(
            proc=p, position=t.map_pos[k] - start,
            frees=names(t.mf_oid, t.mf_ptr, k),
            allocs=names(t.ma_oid, t.ma_ptr, k),
            notifications={t.pkg_dst[j]: names(t.pkg_oid, t.pkg_ptr, j)
                           for j in range(t.mp_ptr[k], t.mp_ptr[k + 1])},
            covers_through=t.map_pos[k + 1] - start - 1,
        ) for k in ks)
        for p, (ks, start) in enumerate(zip(plan._ranges(),
                                            plan.profile.proc_start)))


class _ProcTables(NamedTuple):
    """Capacity-independent MAP-planning tables of one processor.

    Positions index the processor's order.  Objects (oids) are listed
    twice: by first use (``alloc``, in allocation order) and by last use
    (``dead``), each with a pointer array over positions and a prefix
    sum of sizes, so a MAP finds how far it can allocate by one
    bisection and what it frees by one slice.
    """

    #: volatile oids in first-use order (the order MAPs allocate them)
    alloc: list[int]
    #: owner processor of each ``alloc`` entry (address-package target)
    owner: list[int]
    #: ``alloc[alloc_ptr[j]:alloc_ptr[j + 1]]`` are first used at ``j``
    alloc_ptr: array
    #: ``alloc_cum[j]`` = bytes of the objects first used before ``j``
    alloc_cum: array
    #: volatile oids bucketed by last use, ``dead_ptr`` as above
    dead: list[int]
    dead_ptr: array
    #: ``dead_cum[j]`` = bytes of the objects last used before ``j``
    dead_cum: array


def _proc_tables(pp, gi, owner) -> _ProcTables:
    n = len(pp.mem_req)
    span = pp.span
    oid, size = gi.oid, gi.oid_size
    alloc = [oid[o] for o in span]  # first-use order (see ProcessorMemoryProfile.span)
    last = {oid[o]: l for o, (_f, l) in span.items()}
    dead = sorted(alloc, key=last.__getitem__)  # stable: ties by first use
    a_cnt, a_sz = [0] * (n + 1), [0] * (n + 1)
    d_cnt, d_sz = [0] * (n + 1), [0] * (n + 1)
    for o, (f, l) in span.items():
        sz = size[oid[o]]
        a_cnt[f + 1] += 1
        a_sz[f + 1] += sz
        d_cnt[l + 1] += 1
        d_sz[l + 1] += sz
    # Position-indexed tables are int64 arrays: one entry per position of
    # every processor, kept for every capacity planned.
    return _ProcTables(
        alloc, [owner[o] for o in span],
        array("q", accumulate(a_cnt)), array("q", accumulate(a_sz)),
        dead, array("q", accumulate(d_cnt)), array("q", accumulate(d_sz)),
    )


def _plan_tables(profile: MemoryProfile) -> list[_ProcTables]:
    schedule = profile.schedule
    gi = graph_index(schedule.graph)
    # Volatile objects have owners by definition (the liveness analysis
    # already resolved them), so the owner map is read directly.
    owner = schedule.placement.owner
    return [_proc_tables(pp, gi, owner) for pp in profile.procs]


def is_capacity(value) -> bool:
    """A finite integer >= 0 (an integral float such as ``8.0`` too)."""
    try:
        return value >= 0 and value == int(value)
    except (TypeError, ValueError, OverflowError):
        return False


def check_capacity(value) -> int:
    """``value`` as an ``int``, else :class:`~repro.errors.CapacityError`."""
    if not is_capacity(value):
        raise CapacityError("capacity", value)
    return int(value)


def plan_maps(profile: MemoryProfile, capacity: int) -> MapPlan:
    """Compute the MAP plan of ``profile.schedule`` under ``capacity``
    memory per processor.

    Raises :class:`~repro.errors.CapacityError` for a capacity that is
    not a finite integer >= 0 (:func:`check_capacity`) and
    :class:`~repro.errors.NonExecutableScheduleError` when the schedule
    needs more than it on some processor (Definition 6; the ``inf``
    entries of the paper's tables).

    Only the walk below depends on the capacity.  The per-processor
    first-use / last-use tables it reads are memoised on ``profile``, so
    planning one schedule under many capacities builds them once.  Each
    MAP at position ``i`` frees the objects last used since the previous
    MAP (by oid, that is by name) and allocates along the order while
    the next task's first-use objects fit: every object is first used
    at exactly one position, so that is one bisection on a prefix sum
    of sizes.  The plan is emitted as the :class:`MapTables` the
    compiled engine runs.
    """
    capacity = check_capacity(capacity)
    profile.require_executable(capacity)
    tables = profile.memo("map-tables", lambda: _plan_tables(profile))
    proc_start = profile.proc_start
    rows: list[list] = []
    for p, pp in enumerate(profile.procs):
        budget = capacity - pp.perm_bytes  # space available for volatiles
        n = proc_start[p + 1] - proc_start[p]
        alloc, owner, aptr, acum, dead, dptr, dcum = tables[p]
        maps: list[tuple] = []
        rows.append(maps)
        used = 0
        prev = 0  # position of the previous MAP
        i = 0
        while i < n:
            # 1) free volatiles last used since the previous MAP.
            frees = sorted(dead[dptr[prev]:dptr[i]])
            used -= dcum[i] - dcum[prev]
            # 2) allocate forward along the chain until the next task no
            #    longer fits: the largest j with acum[j] - acum[i] fitting.
            j = min(bisect_right(acum, budget - used + acum[i], i) - 1, n)
            if j <= i:
                # Even the next task does not fit — contradicts the
                # MIN_MEM check above; defensive.
                raise NonExecutableScheduleError(p, pp.mem_req[i], capacity)
            used += acum[j] - acum[i]
            lo, hi = aptr[i], aptr[j]
            # 3) one address package per owner, by ascending owner.
            by_owner: dict[int, list[int]] = {}
            for k in range(lo, hi):
                dst = by_owner.get(owner[k])
                if dst is None:
                    by_owner[owner[k]] = [alloc[k]]
                else:
                    dst.append(alloc[k])
            maps.append((i, frees, alloc[lo:hi],
                         [(d, by_owner[d]) for d in sorted(by_owner)]))
            prev, i = i, j
    return MapPlan(capacity, None, profile,
                   _tables=MapTables.of(rows, proc_start))


def unconstrained_plan(profile: MemoryProfile) -> MapPlan:
    """The original-RAPID plan: one MAP per processor allocating all
    volatile space up-front (section 3.1)."""
    return plan_maps(profile, max(profile.tot, 1))


# ----------------------------------------------------------------------
# The plan check: the memory pass's findings, without the analyzer
# ----------------------------------------------------------------------


class Finding(NamedTuple):
    """A :func:`plan_findings` finding: its analyzer rule and fields."""

    rule: str
    message: str
    proc: Optional[int] = None
    position: Optional[int] = None
    task: Optional[str] = None
    obj: Optional[str] = None


def plan_findings(profile: MemoryProfile, capacity: int,
                  plan: Optional[MapPlan]) -> tuple[list[Finding], list[Finding]]:
    """The memory-pass findings (:mod:`repro.analysis.memory`) of
    ``profile`` under ``capacity`` and of ``plan``, if any: ``SA101``,
    ``SA207`` and ``SA102``, then the ``SA2xx`` chain findings.

    ``SA207`` is the MAP-placement rule: at most one MAP per
    (processor, position), in its processor's list, before a task of
    its order; a second MAP at a taken position is the misplaced one.
    """
    head: list[Finding] = []
    for pp in profile.procs:
        if pp.min_mem > capacity:
            peak = max(range(len(pp.mem_req)), key=pp.mem_req.__getitem__)
            head.append(Finding(
                "SA101",
                f"MIN_MEM {pp.min_mem} exceeds capacity {capacity} "
                f"(peak MEM_REQ at position {peak})",
                pp.proc, peak, profile.schedule.orders[pp.proc][peak],
            ))
    if plan is None:
        return head, []
    if len(plan.points) != len(profile.procs):
        return head + [Finding("SA207", f"the plan has {len(plan.points)} MAP "
                               f"lists for {len(profile.procs)} processors")], []
    for q, (pts, order) in enumerate(zip(plan.points, plan.schedule.orders)):
        taken: set[int] = set()
        for mp in pts:
            pos = mp.position
            if mp.proc != q:
                why = f"P{q}'s MAP list holds a MAP of P{mp.proc}"
            elif not 0 <= pos < len(order):
                why = (f"P{q} has a MAP at position {pos}, outside its "
                       f"order of {len(order)} tasks")
            elif pos in taken:
                why = f"P{q} has two MAPs at position {pos}"
            else:
                taken.add(pos)
                continue
            head.append(Finding("SA207", why, q, pos))
    chains: list[Finding] = []
    for p in range(len(plan.schedule.orders)):
        over, chain, covered = _replay(plan, p, walk=False)
        head.extend(over)
        chains.extend(chain if covered else _replay(plan, p, walk=True)[1])
    return head, chains


def _replay(plan: MapPlan, p: int, walk: bool):
    """Replay processor ``p``'s MAPs in position order (a MAP at
    position ``i`` acts before task ``i``), each freeing then allocating
    like the machine's allocator, keeping the running footprint and each
    object's *residency intervals* (the positions it is allocated at).

    Returns ``(over, chain, covered)``: the ``SA102`` findings, the
    ``SA2xx`` findings, and whether every live span sits inside its
    object's residency intervals.  Without ``walk`` the chain findings
    are the complete story only when ``covered``.  With ``walk`` the
    task accesses before each MAP are walked too (``SA201``/``SA205``):
    a missing object is flagged once, then treated as resident from
    that access on (its bytes are not counted, so ``over`` is read
    from the plain replay).
    """
    order = plan.schedule.orders[p]
    g = plan.schedule.graph
    size = graph_index(g).obj_size
    span = plan.profile.procs[p].span
    capacity = plan.capacity
    n = len(order)
    used = plan.profile.procs[p].perm_bytes
    allocated: dict[str, int] = {}  # object -> current interval start
    first_alloc: dict[str, None] = {}  # insertion = first-allocation order
    intervals: dict[str, list[tuple[int, int]]] = {}
    over: list[Finding] = []
    chain: list[Finding] = []
    last_map_pos = -1
    done = 0  # tasks walked so far
    pts = plan.points[p]
    ks = sorted(range(len(pts)), key=lambda k: min(pts[k].position, n))
    for k in ks + [None]:  # None: walk the tasks after the last MAP
        pos = n if k is None else min(pts[k].position, n)
        while walk and done < pos:
            task = order[done]
            for o in g.task(task).accesses:
                if o not in span or o in allocated:
                    continue  # permanent, or properly allocated
                if o in intervals:
                    chain.append(Finding(
                        "SA201",
                        f"{task} accesses {o!r} after a MAP freed it "
                        f"(live span {span[o][0]}..{span[o][1]})",
                        p, done, task, o,
                    ))
                else:
                    chain.append(Finding(
                        "SA205",
                        f"{task} accesses volatile {o!r} but no MAP "
                        "allocated it",
                        p, done, task, o,
                    ))
                # Flag each missing object once, at its first use.
                allocated[o] = done
                first_alloc[o] = None
            done += 1
        if k is None:
            break
        mp = pts[k]
        last_map_pos = max(last_map_pos, mp.position)
        for o in mp.frees:
            start = allocated.pop(o, None)
            if start is None:
                why = ("already freed" if o in intervals
                       else "never allocated")
                chain.append(Finding(
                    "SA202", f"MAP frees {o!r} which is {why}",
                    p, mp.position, obj=o,
                ))
                continue
            intervals.setdefault(o, []).append((start, pos))
            used -= size[o]
        for o in mp.allocs:
            if o in allocated:
                chain.append(Finding(
                    "SA206", f"MAP allocates {o!r} which is already allocated",
                    p, mp.position, obj=o,
                ))
                continue
            allocated[o] = pos
            first_alloc[o] = None
            used += size[o]
            if used > capacity:
                over.append(Finding(
                    "SA102",
                    f"MAP {k} brings usage to {used} > capacity "
                    f"{capacity} when allocating {o!r}",
                    p, mp.position, obj=o,
                ))
    for o, start in allocated.items():
        intervals.setdefault(o, []).append((start, n + 1))

    for o in first_alloc:
        if o not in span:
            chain.append(Finding(
                "SA204", f"{o!r} is allocated but no task on P{p} accesses it",
                p, obj=o,
            ))
        elif o in allocated and span[o][1] < last_map_pos:
            chain.append(Finding(
                "SA203",
                f"{o!r} died at position {span[o][1]} but survived "
                f"the MAP at position {last_map_pos} unfreed",
                p, span[o][1], obj=o,
            ))
    return over, chain, _covered(span, intervals)


def _covered(span, intervals) -> bool:
    """Every live span ``first..last`` inside its object's residency
    intervals (no gap an access could fall into)."""
    for o, (first, last) in span.items():
        q = first
        for start, end in intervals.get(o, ()):
            if end <= q:
                continue
            if start > q:
                break  # residency gap at position q
            q = end
            if q > last:
                break
        if q <= last:
            return False
    return True

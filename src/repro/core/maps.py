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
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple, Optional

from ..errors import CapacityError, NonExecutableScheduleError, SimulationError
from .index import graph_index
from .liveness import MemoryProfile
from .schedule import Schedule


@dataclass
class MapPoint:
    """One memory allocation point on one processor."""

    proc: int
    #: The MAP sits immediately before ``orders[proc][position]``; the
    #: initial MAP has position 0.
    position: int
    #: Volatile objects freed here (dead before ``position``).
    frees: list[str] = field(default_factory=list)
    #: Volatile objects allocated here, in first-use order.
    allocs: list[str] = field(default_factory=list)
    #: Owner processor -> volatile objects whose fresh addresses must be
    #: notified to it (it will RMA-put their contents here).
    notifications: dict[int, list[str]] = field(default_factory=dict)
    #: Last task position whose volatiles this MAP allocated (filled in
    #: by the planner; ``None`` on hand-built points).
    covers_through: Optional[int] = None


@dataclass
class MapPlan:
    """MAP positions and actions for a whole schedule under a capacity.

    It keeps the profile it was made from, and that profile's schedule."""

    capacity: int
    #: per-processor list of MAPs in execution order
    points: list[list[MapPoint]]
    profile: MemoryProfile

    @property
    def schedule(self) -> Schedule:
        return self.profile.schedule

    @property
    def maps_per_proc(self) -> list[int]:
        return [len(pts) for pts in self.points]

    @property
    def avg_maps(self) -> float:
        """Average number of MAPs per processor (the ``#MAPs`` columns of
        Tables 2/3/5).  Processors with no tasks are excluded."""
        counts = [len(pts) for pts, order in zip(self.points, self.schedule.orders) if order]
        return sum(counts) / len(counts) if counts else 0.0

    @property
    def total_allocations(self) -> int:
        return sum(len(m.allocs) for pts in self.points for m in pts)

    @property
    def total_frees(self) -> int:
        return sum(len(m.frees) for pts in self.points for m in pts)

    @property
    def total_packages(self) -> int:
        """Number of address packages sent (one per MAP per destination)."""
        return sum(len(m.notifications) for pts in self.points for m in pts)

    def map_positions(self, proc: int) -> list[int]:
        return [m.position for m in self.points[proc]]

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
        g = self.schedule.graph
        peaks: list[int] = []
        for p, pts in enumerate(self.points):
            used = self.profile.procs[p].perm_bytes
            peak = used
            for mp in pts:
                for o in mp.frees:
                    used -= g.object(o).size
                for o in mp.allocs:
                    used += g.object(o).size
                if used > peak:
                    peak = used
            peaks.append(peak)
        return peaks


class _ProcTables(NamedTuple):
    """Capacity-independent MAP-planning tables of one processor.

    Positions index the processor's order.  Objects are listed twice:
    by first use (``alloc``, in allocation order) and by last use
    (``dead``), each with a pointer array over positions and a prefix
    sum of sizes, so a MAP finds how far it can allocate by one
    bisection and what it frees by one slice.
    """

    #: volatile objects in first-use order (the order MAPs allocate them)
    alloc: list[str]
    #: owner processor of each ``alloc`` entry (address-package target)
    owner: list[int]
    #: ``alloc[alloc_ptr[j]:alloc_ptr[j + 1]]`` are first used at ``j``
    alloc_ptr: array
    #: ``alloc_cum[j]`` = bytes of the objects first used before ``j``
    alloc_cum: array
    #: volatile objects bucketed by last use, ``dead_ptr`` as above
    dead: list[str]
    dead_ptr: array
    #: ``dead_cum[j]`` = bytes of the objects last used before ``j``
    dead_cum: array


def _proc_tables(pp, size: dict[str, int], owner) -> _ProcTables:
    n = len(pp.mem_req)
    span = pp.span
    alloc = list(span)  # first-use order (see ProcessorMemoryProfile.span)
    last = {o: l for o, (_f, l) in span.items()}
    dead = sorted(alloc, key=last.__getitem__)  # stable: ties by first use
    a_cnt, a_sz = [0] * (n + 1), [0] * (n + 1)
    d_cnt, d_sz = [0] * (n + 1), [0] * (n + 1)
    for o, (f, l) in span.items():
        sz = size[o]
        a_cnt[f + 1] += 1
        a_sz[f + 1] += sz
        d_cnt[l + 1] += 1
        d_sz[l + 1] += sz
    # Position-indexed tables are int64 arrays: one entry per position of
    # every processor, kept for every capacity planned.
    return _ProcTables(
        alloc, [owner[o] for o in alloc],
        array("q", accumulate(a_cnt)), array("q", accumulate(a_sz)),
        dead, array("q", accumulate(d_cnt)), array("q", accumulate(d_sz)),
    )


def _plan_tables(profile: MemoryProfile) -> list[_ProcTables]:
    schedule = profile.schedule
    size = graph_index(schedule.graph).obj_size
    # Volatile objects have owners by definition (the liveness analysis
    # already resolved them), so the owner map is read directly.
    owner = schedule.placement.owner
    return [_proc_tables(pp, size, owner) for pp in profile.procs]


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
    MAP (sorted by name) and allocates along the order while the next
    task's first-use objects fit: every object is first used at exactly
    one position, so that is one bisection on a prefix sum of sizes.
    """
    capacity = check_capacity(capacity)
    profile.require_executable(capacity)
    tables = profile.memo("map-tables", lambda: _plan_tables(profile))
    points: list[list[MapPoint]] = []
    for p, order in enumerate(profile.schedule.orders):
        pp = profile.procs[p]
        budget = capacity - pp.perm_bytes  # space available for volatiles
        proc_points: list[MapPoint] = []
        points.append(proc_points)
        n = len(order)
        alloc, owner, aptr, acum, dead, dptr, dcum = tables[p]
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
            notifications: dict[int, list[str]] = {}
            for k in range(lo, hi):
                dst = notifications.get(owner[k])
                if dst is None:
                    notifications[owner[k]] = [alloc[k]]
                else:
                    dst.append(alloc[k])
            proc_points.append(MapPoint(
                proc=p, position=i, frees=frees, allocs=alloc[lo:hi],
                notifications=notifications, covers_through=j - 1,
            ))
            prev, i = i, j
    return MapPlan(capacity=capacity, points=points, profile=profile)


def unconstrained_plan(profile: MemoryProfile) -> MapPlan:
    """The original-RAPID plan: one MAP per processor allocating all
    volatile space up-front (section 3.1)."""
    return plan_maps(profile, max(profile.tot, 1))


def misplaced_maps(plan: MapPlan) -> list[tuple[MapPoint, str]]:
    """The MAPs of ``plan`` that break the simulator's one MAP-placement
    rule, each with its reason, in plan order.

    The rule: at most one MAP per (processor, position), each before a
    task of the processor's order in ``plan.schedule``.  A second MAP at
    a taken position is the misplaced one; a MAP outside the order is
    misplaced wherever it sits.
    """
    orders = plan.schedule.orders
    taken: set[tuple[int, int]] = set()
    bad: list[tuple[MapPoint, str]] = []
    for pts in plan.points:
        for mp in pts:
            q, pos = mp.proc, mp.position
            if not 0 <= pos < len(orders[q]):
                bad.append((mp, f"P{q} has a MAP at position {pos}, outside "
                                f"its order of {len(orders[q])} tasks"))
            elif (q, pos) in taken:
                bad.append((mp, f"P{q} has two MAPs at position {pos}"))
            taken.add((q, pos))
    return bad


def maps_by_position(
    plan: Optional[MapPlan], num_procs: int
) -> list[dict[int, MapPoint]]:
    """Per-processor ``position -> MapPoint`` tables both engines run.

    A plan that breaks the MAP-placement rule (:func:`misplaced_maps`)
    raises :class:`~repro.errors.SimulationError` naming the processor
    and the position of its first misplaced MAP.  ``plan=None``
    (baseline mode) yields no MAPs.
    """
    map_at: list[dict[int, MapPoint]] = [{} for _ in range(num_procs)]
    if plan is not None:
        bad = misplaced_maps(plan)
        if bad:
            raise SimulationError(bad[0][1])
        for pts in plan.points:
            for mp in pts:
                map_at[mp.proc][mp.position] = mp
    return map_at

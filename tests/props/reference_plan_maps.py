"""Frozen reference MAP planner: the name-keyed ``plan_maps`` as it
stood before planning moved onto memoised first-use / last-use tables.

Kept verbatim (apart from this docstring, and from building each MAP's
lists before it constructs the now frozen ``MapPoint``) so the property
suite can pin ``repro.core.maps.plan_maps`` to it, through the plan's
name view.  Do not "fix" or speed this copy up: it is the oracle.
"""

from __future__ import annotations

from typing import Optional

from repro.core.liveness import MemoryProfile, analyze_memory
from repro.core.maps import MapPlan, MapPoint
from repro.core.schedule import Schedule
from repro.errors import NonExecutableScheduleError


def reference_plan_maps(
    schedule: Schedule,
    capacity: int,
    profile: Optional[MemoryProfile] = None,
) -> MapPlan:
    if profile is None:
        profile = analyze_memory(schedule)
    g = schedule.graph
    placement = schedule.placement
    points: list[list[MapPoint]] = []
    for p, order in enumerate(schedule.orders):
        pp = profile.procs[p]
        if pp.min_mem > capacity:
            raise NonExecutableScheduleError(p, pp.min_mem, capacity)
        budget = capacity - pp.perm_bytes  # space available for volatiles
        proc_points: list[MapPoint] = []
        if not order:
            points.append(proc_points)
            continue
        # First use of each volatile object, grouped by position.
        first_at: dict[int, list[str]] = {}
        for o, (f, _l) in pp.span.items():
            first_at.setdefault(f, []).append(o)
        size = {o: g.object(o).size for o in pp.span}
        last = {o: pp.span[o][1] for o in pp.span}

        allocated: set[str] = set()
        used = 0
        i = 0
        n = len(order)
        while i < n:
            frees: list[str] = []
            allocs: list[str] = []
            notifications: dict[int, list[str]] = {}
            # 1) free volatiles dead before position i.
            for o in sorted(allocated):
                if last[o] < i:
                    allocated.discard(o)
                    used -= size[o]
                    frees.append(o)
            # 2) allocate forward along the chain until the next task no
            #    longer fits.
            j = i
            while j < n:
                need = [
                    o
                    for o in first_at.get(j, ())
                    if o not in allocated
                ]
                extra = sum(size[o] for o in need)
                if used + extra > budget:
                    break
                for o in need:
                    allocated.add(o)
                    used += size[o]
                    allocs.append(o)
                    owner = placement[o]
                    notifications.setdefault(owner, []).append(o)
                j += 1
            if j == i:
                # Even the next task does not fit — contradicts the
                # MIN_MEM check above; defensive.
                raise NonExecutableScheduleError(p, pp.mem_req[i], capacity)
            proc_points.append(MapPoint(
                proc=p, position=i, frees=frees, allocs=allocs,
                notifications=notifications, covers_through=j - 1,
            ))
            i = j
        points.append(proc_points)
    return MapPlan(capacity=capacity, points=points, profile=profile)

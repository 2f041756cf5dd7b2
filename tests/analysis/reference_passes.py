"""Frozen reference analyzer passes: ``memory_pass``, ``sanitizer_pass``
and the sanitizer's two tiers ``_replay_proc`` and ``_walk_proc``, as
they stood when the memory pass (``SA1xx``) and the liveness sanitizer
(``SA2xx``) each replayed a processor's MAP chain in their own loop,
before :mod:`repro.analysis.memory` folded them into one replay.

Kept verbatim apart from this docstring and the imports (the two
modules sit side by side in one file).  Do not "fix" or speed this copy
up: it is the oracle the live pass must equal, message text included.
The two intended differences: the live pass reports ``SA203``/``SA204``
in first-allocation order on every processor (the walking tier here
sorts them by name), and it replays a MAP list that is out of position
order by position for ``SA102`` too (``memory_pass`` here walks the
list).
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic
from repro.core.depmem import distributed_dependence_memory


def memory_pass(ctx) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    profile = ctx.profile
    capacity = ctx.capacity
    g = ctx.schedule.graph

    for pp in profile.procs:
        if pp.min_mem > capacity:
            peak = max(range(len(pp.mem_req)), key=pp.mem_req.__getitem__)
            diags.append(Diagnostic.of(
                "SA101",
                f"MIN_MEM {pp.min_mem} exceeds capacity {capacity} "
                f"(peak MEM_REQ at position {peak})",
                proc=pp.proc,
                position=peak,
                task=ctx.schedule.orders[pp.proc][peak],
            ))

    if ctx.plan is not None:
        size = {o.name: o.size for o in g.objects()}
        for p, pts in enumerate(ctx.plan.points):
            pp = profile.procs[p]
            used = pp.perm_bytes
            allocated: set[str] = set()
            for k, mp in enumerate(pts):
                for o in mp.frees:
                    if o in allocated:
                        allocated.discard(o)
                        used -= size[o]
                for o in mp.allocs:
                    if o in allocated:
                        continue  # double-alloc; the sanitizer flags it
                    allocated.add(o)
                    used += size[o]
                    if used > capacity:
                        diags.append(Diagnostic.of(
                            "SA102",
                            f"MAP {k} brings usage to {used} > capacity "
                            f"{capacity} when allocating {o!r}",
                            proc=p,
                            position=mp.position,
                            obj=o,
                        ))

    # Headroom advisory: the capacity was pinned to the MIN_MEM floor
    # even though recycling left slack to give (TOT > MIN_MEM) — zero
    # headroom for the runtime's own dependence records.
    if (profile.procs and capacity == profile.min_mem
            and profile.tot > profile.min_mem):
        dep = distributed_dependence_memory(ctx.schedule)
        q = max(range(len(dep.per_proc)), key=dep.per_proc.__getitem__)
        share = dep.per_proc[q] / (dep.per_proc[q] + max(capacity, 1))
        diags.append(Diagnostic.of(
            "SA103",
            f"capacity equals MIN_MEM {capacity}; distributed dependence "
            f"records would add {dep.per_proc[q]} B on P{q} "
            f"({share:.0%} of the total, cf. the paper's 18-50%)",
            proc=q,
        ))
    return diags


def sanitizer_pass(ctx) -> list[Diagnostic]:
    if ctx.plan is None:
        return []
    diags: list[Diagnostic] = []
    for p, order in enumerate(ctx.schedule.orders):
        span = ctx.profile.procs[p].span
        found, covered = _replay_proc(ctx, p, order, span)
        if covered:
            diags.extend(found)
        else:
            diags.extend(_walk_proc(ctx, p, order, span))
    return diags


def _replay_proc(ctx, p: int, order, span) -> tuple[list[Diagnostic], bool]:
    """Fast tier: MAP-only replay plus span-coverage check.

    Returns ``(diagnostics, covered)``; the diagnostics are only valid
    when ``covered`` is True (every live span sits inside its object's
    residency intervals, so no access can miss its object and the
    MAP-chain findings are the complete story).
    """
    diags: list[Diagnostic] = []
    n = len(order)
    allocated: dict[str, int] = {}  # object -> current interval start
    ever_allocated: dict[str, None] = {}  # insertion = plan order
    intervals: dict[str, list[tuple[int, int]]] = {}
    last_map_pos = -1
    pts = ctx.plan.points[p]
    if any(a.position > b.position for a, b in zip(pts, pts[1:])):
        pts = sorted(pts, key=lambda m: m.position)
    for mp in pts:
        pos = min(mp.position, n)
        if mp.position > last_map_pos:
            last_map_pos = mp.position
        for o in mp.frees:
            start = allocated.pop(o, None)
            if start is None:
                why = ("already freed" if o in intervals
                       else "never allocated")
                diags.append(Diagnostic.of(
                    "SA202",
                    f"MAP frees {o!r} which is {why}",
                    proc=p, position=mp.position, obj=o,
                ))
                continue
            intervals.setdefault(o, []).append((start, pos))
        for o in mp.allocs:
            if o in allocated:
                diags.append(Diagnostic.of(
                    "SA206",
                    f"MAP allocates {o!r} which is already allocated",
                    proc=p, position=mp.position, obj=o,
                ))
                continue
            allocated[o] = pos
            ever_allocated[o] = None
    for o, start in allocated.items():
        intervals.setdefault(o, []).append((start, n + 1))

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
            return diags, False

    for o in ever_allocated:
        if o not in span:
            diags.append(Diagnostic.of(
                "SA204",
                f"{o!r} is allocated but no task on P{p} accesses it",
                proc=p, obj=o,
            ))
        elif o in allocated and span[o][1] < last_map_pos:
            diags.append(Diagnostic.of(
                "SA203",
                f"{o!r} died at position {span[o][1]} but survived "
                f"the MAP at position {last_map_pos} unfreed",
                proc=p, position=span[o][1], obj=o,
            ))
    return diags, True


def _walk_proc(ctx, p: int, order, span) -> list[Diagnostic]:
    """Slow tier: the exact MAP/task interleaving, anchoring ``SA201``
    and ``SA205`` at the first access that misses its object."""
    diags: list[Diagnostic] = []
    g = ctx.schedule.graph
    n = len(order)
    maps_at: dict[int, list] = {}
    for mp in ctx.plan.points[p]:
        maps_at.setdefault(min(mp.position, n), []).append(mp)

    allocated: set[str] = set()
    freed: set[str] = set()
    ever_allocated: set[str] = set()
    last_map_pos = -1
    for i in range(n + 1):
        for mp in maps_at.get(i, ()):
            last_map_pos = max(last_map_pos, mp.position)
            for o in mp.frees:
                if o not in allocated:
                    why = ("already freed" if o in freed
                           else "never allocated")
                    diags.append(Diagnostic.of(
                        "SA202",
                        f"MAP frees {o!r} which is {why}",
                        proc=p, position=mp.position, obj=o,
                    ))
                    continue
                allocated.discard(o)
                freed.add(o)
            for o in mp.allocs:
                if o in allocated:
                    diags.append(Diagnostic.of(
                        "SA206",
                        f"MAP allocates {o!r} which is already "
                        "allocated",
                        proc=p, position=mp.position, obj=o,
                    ))
                    continue
                allocated.add(o)
                ever_allocated.add(o)
        if i == n:
            break
        task = order[i]
        for o in g.task(task).accesses:
            if o not in span or o in allocated:
                continue  # permanent, or properly allocated
            if o in freed:
                diags.append(Diagnostic.of(
                    "SA201",
                    f"{task} accesses {o!r} after a MAP freed it "
                    f"(live span {span[o][0]}..{span[o][1]})",
                    proc=p, position=i, task=task, obj=o,
                ))
            else:
                diags.append(Diagnostic.of(
                    "SA205",
                    f"{task} accesses volatile {o!r} but no MAP "
                    "allocated it",
                    proc=p, position=i, task=task, obj=o,
                ))
            # Flag each missing object once, at its first use.
            allocated.add(o)
            ever_allocated.add(o)

    for o in sorted(ever_allocated):
        if o not in span:
            diags.append(Diagnostic.of(
                "SA204",
                f"{o!r} is allocated but no task on P{p} accesses it",
                proc=p, obj=o,
            ))
        elif o in allocated and span[o][1] < last_map_pos:
            diags.append(Diagnostic.of(
                "SA203",
                f"{o!r} died at position {span[o][1]} but survived "
                f"the MAP at position {last_map_pos} unfreed",
                proc=p, position=span[o][1], obj=o,
            ))
    return diags

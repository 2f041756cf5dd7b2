"""Memory pass: MEM_REQ / MIN_MEM executability (Definitions 5-6) and
the MAP plan's free/alloc chains against the volatile life spans
(Definitions 3-4).

Recomputes the capacity story of a schedule directly from the liveness
profile and — when a plan exists — replays each processor's MAP chain
without the simulator (:func:`_replay`).  MAPs run in position order (a
MAP at position ``i`` acts immediately before task ``i``), each freeing
then allocating like the machine's
:class:`~repro.machine.memory.ObjectAllocator`.  The replay keeps the
running footprint and each object's *residency intervals* (task-position
ranges during which it is allocated), and checks that every volatile
live span is covered — O(plan + volatile objects), independent of how
many accesses each task makes, and exact for clean processors because
accesses can only happen inside the span.  Only a processor whose spans
have a residency gap is replayed again walking its task accesses, to
anchor each finding at the first real access that misses its object.

``SA101``
    ``MIN_MEM > capacity`` on some processor: no MAP plan exists
    (Definition 6's non-executable case, the ``inf`` table entries).
``SA102``
    A hand-built plan whose running footprint exceeds the capacity at
    some MAP.
``SA103``
    Informational: the capacity fits the data but leaves no headroom
    for the distributed dependence structures the paper's conclusion
    measures (18-50% of total memory).
``SA201``-``SA207``
    ``SA201`` use-after-free, ``SA202`` double-free / free of a
    never-allocated object, ``SA203`` leaked volatile (dead but
    surviving a later MAP), ``SA204`` dead allocation (never accessed on
    the processor), ``SA205`` use without allocation, ``SA206`` double
    allocation, ``SA207`` a misplaced MAP, one both engines refuse
    (:func:`repro.core.maps.misplaced_maps`).  ``SA203``/``SA204`` come
    in first-allocation order.

Plans from :func:`repro.core.maps.plan_maps` are within budget and
clean by construction (the property tests assert it); the plan rules
exist for hand-built and mutated plans, and as the static shadow of the
dynamic ``input-residency`` / ``landing-space`` invariants.
"""

from __future__ import annotations

from ..core.depmem import distributed_dependence_memory
from ..core.maps import misplaced_maps
from .diagnostics import Diagnostic

__all__ = ["memory_pass"]


def memory_pass(ctx) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    profile = ctx.profile
    capacity = ctx.capacity

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

    chains: list[Diagnostic] = []
    if ctx.plan is not None:
        for mp, why in misplaced_maps(ctx.plan):
            diags.append(Diagnostic.of(
                "SA207", why, proc=mp.proc, position=mp.position))
        for p in range(len(ctx.schedule.orders)):
            over, chain, covered = _replay(ctx, p, walk=False)
            diags.extend(over)
            chains.extend(chain if covered else _replay(ctx, p, walk=True)[1])

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
    return diags + chains


def _replay(ctx, p: int, walk: bool):
    """Replay processor ``p``'s MAPs in execution order.

    Returns ``(over, chain, covered)``: the ``SA102`` findings, the
    ``SA2xx`` findings, and whether every live span sits inside its
    object's residency intervals.  Without ``walk`` the chain findings
    are the complete story only when ``covered``.  With ``walk`` the
    task accesses before each MAP are walked too (``SA201``/``SA205``):
    a missing object is flagged once, then treated as resident from
    that access on (its bytes are not counted, so ``over`` is read
    from the plain replay).
    """
    order = ctx.schedule.orders[p]
    g = ctx.schedule.graph
    size = g.object_size
    span = ctx.profile.procs[p].span
    capacity = ctx.capacity
    n = len(order)
    used = ctx.profile.procs[p].perm_bytes
    allocated: dict[str, int] = {}  # object -> current interval start
    first_alloc: dict[str, None] = {}  # insertion = first-allocation order
    intervals: dict[str, list[tuple[int, int]]] = {}
    over: list[Diagnostic] = []
    chain: list[Diagnostic] = []
    last_map_pos = -1
    done = 0  # tasks walked so far
    pts = ctx.plan.points[p]
    ks = sorted(range(len(pts)), key=lambda k: min(pts[k].position, n))
    for k in ks + [None]:  # None: walk the tasks after the last MAP
        pos = n if k is None else min(pts[k].position, n)
        while walk and done < pos:
            task = order[done]
            for o in g.task(task).accesses:
                if o not in span or o in allocated:
                    continue  # permanent, or properly allocated
                if o in intervals:
                    chain.append(Diagnostic.of(
                        "SA201",
                        f"{task} accesses {o!r} after a MAP freed it "
                        f"(live span {span[o][0]}..{span[o][1]})",
                        proc=p, position=done, task=task, obj=o,
                    ))
                else:
                    chain.append(Diagnostic.of(
                        "SA205",
                        f"{task} accesses volatile {o!r} but no MAP "
                        "allocated it",
                        proc=p, position=done, task=task, obj=o,
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
                chain.append(Diagnostic.of(
                    "SA202",
                    f"MAP frees {o!r} which is {why}",
                    proc=p, position=mp.position, obj=o,
                ))
                continue
            intervals.setdefault(o, []).append((start, pos))
            used -= size[o]
        for o in mp.allocs:
            if o in allocated:
                chain.append(Diagnostic.of(
                    "SA206",
                    f"MAP allocates {o!r} which is already allocated",
                    proc=p, position=mp.position, obj=o,
                ))
                continue
            allocated[o] = pos
            first_alloc[o] = None
            used += size[o]
            if used > capacity:
                over.append(Diagnostic.of(
                    "SA102",
                    f"MAP {k} brings usage to {used} > capacity "
                    f"{capacity} when allocating {o!r}",
                    proc=p, position=mp.position, obj=o,
                ))
    for o, start in allocated.items():
        intervals.setdefault(o, []).append((start, n + 1))

    for o in first_alloc:
        if o not in span:
            chain.append(Diagnostic.of(
                "SA204",
                f"{o!r} is allocated but no task on P{p} accesses it",
                proc=p, obj=o,
            ))
        elif o in allocated and span[o][1] < last_map_pos:
            chain.append(Diagnostic.of(
                "SA203",
                f"{o!r} died at position {span[o][1]} but survived "
                f"the MAP at position {last_map_pos} unfreed",
                proc=p, position=span[o][1], obj=o,
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

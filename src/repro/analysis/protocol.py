"""Protocol pass: the one-slot address-package channel and Theorem 1.

Builds the *static wait-for graph* over processors from three sources
and runs Tarjan's SCC (the :func:`repro.core.dcg.tarjan_scc` machinery
the DCG slicer uses) to find deadlock cycles:

1. **Order cycles** (``SA304``): the per-processor orders conflict with
   the dependence DAG — the combined graph of Definition 1 (dependence
   plus sequence edges) is cyclic, so some task can never become ready.
   The stuck tasks are the ones :func:`repro.core.schedule.combined_walk`
   (the walk :func:`~repro.core.schedule.gantt` times) never reaches,
   and the cycle shown is :func:`repro.core.dcg.find_cycle`'s.
2. **Missing notifications** (``SA303``): an allocated volatile object
   whose owner is never sent the address.  The owner's RMA put suspends
   forever (it waits on the destination), and the destination's
   consumer tasks wait on the owner's data.
3. **Slot-overwrite hazards** (``SA302``): two consecutive address
   packages from one processor to one destination with no consuming
   task in between.  Under Definition 4's one-package-in-flight rule
   a plan must *self-throttle*: some object of the earlier package has
   its first use before the later MAP's position, which proves the
   destination performed its RA (it deposited the data the consuming
   task ran on) before the next SND.  Without such a witness task the
   unbuffered slot can be overwritten, the earlier addresses are lost,
   and the same two wait-for edges as case 2 appear.

Every hazard contributes directed edges to the wait-for graph; a
strongly connected component of two or more processors is reported as
``SA301`` with a witness whose ``wait-for:`` lines and
``cycle: P0 -> P1 -> P0`` line are written by
:func:`repro.core.dcg.wait_for_lines`, the helper
:func:`repro.conformance.invariants.deadlock_witness` writes them with,
so static and dynamic reports can be compared textually.
"""

from __future__ import annotations

from ..core.dcg import find_cycle, tarjan_scc, wait_for_lines
from ..core.index import graph_index
from ..core.schedule import combined_walk
from .diagnostics import Diagnostic

__all__ = ["protocol_pass"]


def protocol_pass(ctx) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    #: directed wait-for edges: (waiter, holder) -> reasons.
    edges: dict[tuple[int, int], list[str]] = {}

    def wait(a: int, b: int, why: str) -> None:
        if a != b:
            edges.setdefault((a, b), []).append(why)

    _order_cycles(ctx, diags, wait)
    if ctx.plan is not None:
        _package_hazards(ctx, diags, wait)
    _deadlock_cycles(ctx, diags, edges)
    return diags


# ---------------------------------------------------------------------
# 1) combined-graph acyclicity (Definition 1)
# ---------------------------------------------------------------------

def _order_cycles(ctx, diags, wait) -> None:
    """Report the SA304 finding and its wait-for edges.

    The finding depends only on the schedule, not on the capacity, so
    it is computed once per schedule and memoised on the schedule's
    memory profile, which every cell of one schedule shares."""
    found = ctx.profile.memo(
        "order-cycles", lambda: _order_cycle_finding(ctx.profile))
    if found is None:
        return
    diag, waits = found
    diags.append(diag)
    for a, b, why in waits:
        wait(a, b, why)


def _order_cycle_finding(profile):
    """``None`` for an acyclic combined graph of ``profile``'s schedule,
    else the SA304 diagnostic and its wait-for edges as
    ``(waiter, holder, why)``.

    The stuck tasks are the ones :func:`~repro.core.schedule.combined_walk`
    never reaches (the same set for any walk order).  The cycle shown is
    the first :func:`~repro.core.dcg.find_cycle` finds among them: roots
    in name order, each task's dependence successors in graph order,
    then its sequence successor."""
    gi = graph_index(profile.schedule.graph)
    _, unreached, seq = combined_walk(gi, profile.tid_at, profile.proc_start)
    if not unreached:
        return None
    asg = profile.schedule.assignment
    names, succ = gi.names, gi.succ
    inside = set(unreached)
    stuck_succ = {
        u: [v for v, _ in succ[u] if v in inside]
        + ([seq[u]] if seq[u] in inside else [])
        for u in sorted(unreached, key=names.__getitem__)
    }
    cycle = [names[i] for i in find_cycle(stuck_succ) or ()]
    stuck = sorted(names[i] for i in unreached)
    shown = " -> ".join(cycle) if cycle else ", ".join(stuck[:5])
    diag = Diagnostic.of(
        "SA304",
        f"{len(stuck)} task(s) can never become ready; cycle: {shown}",
        task=stuck[0],
        proc=asg.get(stuck[0]),
    )
    # Each adjacency t_i -> t_{i+1} means t_{i+1} waits for t_i.
    waits = tuple(
        (asg[b], asg[a], f"task {b!r} ordered after {a!r}")
        for a, b in zip(cycle, cycle[1:])
    )
    return diag, waits


# ---------------------------------------------------------------------
# 2 + 3) address packages on the one-slot channel (Definitions 3-4)
# ---------------------------------------------------------------------

def _package_hazards(ctx, diags, wait) -> None:
    plan = ctx.plan
    owner_map = ctx.schedule.placement.owner
    for p in range(ctx.schedule.num_procs):
        pp = ctx.profile.procs[p]
        pts = plan.points[p]

        # One scan of the plan collects everything both checks need:
        # first-allocation indices, per-destination notified sets and
        # package sequences — all in deterministic plan order.
        alloc_at: dict[str, int] = {}
        notified: dict[int, set[str]] = {}
        by_dest: dict[int, list] = {}
        for k, mp in enumerate(pts):
            for o in mp.allocs:
                alloc_at.setdefault(o, k)
            for dest, objs in mp.notifications.items():
                if objs:
                    notified.setdefault(dest, set()).update(objs)
                    by_dest.setdefault(dest, []).append((mp, tuple(objs)))

        # SA303: every allocated volatile must be notified to its owner.
        for o in alloc_at:
            owner = owner_map[o]
            if owner == p:
                continue
            if o not in notified.get(owner, ()):
                mp = pts[alloc_at[o]]
                diags.append(Diagnostic.of(
                    "SA303",
                    f"{o!r} is allocated but its owner P{owner} is never "
                    "notified of the address",
                    proc=p, position=mp.position, obj=o,
                ))
                wait(owner, p,
                     f"put of {o!r} suspended: address never notified")
                wait(p, owner, f"data {o!r} never deposited")

        # SA302: consecutive packages to one destination need a
        # consuming task between them (the self-throttling witness).
        for dest in sorted(by_dest):
            pkgs = by_dest[dest]
            for (mp_a, objs_a), (mp_b, _objs_b) in zip(pkgs, pkgs[1:]):
                throttled = any(
                    o in pp.span and pp.span[o][0] < mp_b.position
                    for o in objs_a
                )
                if throttled:
                    continue
                lost = ", ".join(repr(o) for o in objs_a)
                diags.append(Diagnostic.of(
                    "SA302",
                    f"package to P{dest} from the MAP at position "
                    f"{mp_a.position} ({lost}) has no consuming task "
                    f"before the next package at position "
                    f"{mp_b.position}; the slot can be overwritten",
                    proc=p, position=mp_b.position, obj=objs_a[0],
                ))
                for o in objs_a:
                    wait(dest, p,
                         f"put of {o!r} suspended: address package "
                         "overwritten")
                    wait(p, dest, f"data {o!r} never deposited")


# ---------------------------------------------------------------------
# SCC over the wait-for graph (Theorem 1)
# ---------------------------------------------------------------------

def _deadlock_cycles(ctx, diags, edges) -> None:
    if not edges:
        return
    nodes: set[int] = set()
    for a, b in edges:
        nodes.update((a, b))
    succ: dict[int, set[int]] = {n: set() for n in nodes}
    for a, b in edges:
        succ[a].add(b)
    comp = tarjan_scc(succ)
    members: dict[int, list[int]] = {}
    for n, c in comp.items():
        members.setdefault(c, []).append(n)
    for c in sorted(members, key=lambda c: min(members[c])):
        group = sorted(members[c])
        if len(group) < 2:
            continue
        cycle = _proc_cycle(succ, group)
        witness = _witness(edges, group, cycle)
        rendered = " -> ".join(f"P{q}" for q in cycle)
        diags.append(Diagnostic.of(
            "SA301",
            f"static wait-for cycle: {rendered}",
            proc=cycle[0],
            cycle=tuple(cycle),
            witness=witness,
        ))


def _proc_cycle(succ, group: list[int]) -> list[int]:
    """A cycle within one SCC, ``[p0, ..., p0]`` starting at the
    smallest member."""
    inside = set(group)
    start = group[0]
    stack = [start]
    seen = {start}
    while True:
        u = stack[-1]
        nxt = sorted(v for v in succ[u] if v in inside)
        target = next((v for v in nxt if v == start), None)
        if target is not None and len(stack) > 1:
            return stack + [start]
        advanced = False
        for v in nxt:
            if v not in seen:
                seen.add(v)
                stack.append(v)
                advanced = True
                break
        if not advanced:
            # All neighbours visited: close on the first repeat.
            v = nxt[0]
            return stack[stack.index(v):] + [v]


def _witness(edges, group: list[int], cycle: list[int]) -> str:
    """Witness report in :func:`deadlock_witness`'s shape."""
    inside = set(group)
    lines = [
        "STATIC DEADLOCK: wait-for cycle over "
        + ", ".join(f"P{q}" for q in group)
    ]
    waits: dict[int, list[int]] = {}
    for (a, b), reasons in sorted(edges.items()):
        if a in inside and b in inside:
            for why in reasons:
                lines.append(f"  P{a}: waits for P{b} ({why})")
            waits.setdefault(a, []).append(b)
    return "\n".join(lines + wait_for_lines(waits, cycle))

"""Memory pass: MEM_REQ / MIN_MEM executability (Definitions 5-6) and
the MAP plan's free/alloc chains against the volatile life spans
(Definitions 3-4).

Recomputes the capacity story of a schedule directly from the liveness
profile and — when a plan exists — replays each processor's MAP chain
without the simulator (:func:`repro.core.maps.plan_findings`, which
the machine also runs on every plan it did not make: both engines
refuse a plan with any error below, with the first one's message).
This pass wraps each finding as a :class:`Diagnostic`.  The replay
keeps the running footprint and each object's *residency intervals*,
and checks that every volatile live span is covered — O(plan +
volatile objects).  Only a processor whose spans have a residency gap
is replayed again walking its task accesses, to anchor each finding at
the first real access that misses its object.

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
    allocation, ``SA207`` a misplaced MAP.  ``SA203``/``SA204`` come
    in first-allocation order and are the only warnings.

Plans from :func:`repro.core.maps.plan_maps` are within budget and
clean by construction (the property tests assert it); the plan rules
exist for hand-built and mutated plans, and as the static shadow of the
dynamic ``input-residency`` / ``landing-space`` invariants.
"""

from __future__ import annotations

from ..core.depmem import distributed_dependence_memory
from ..core.maps import plan_findings
from .diagnostics import Diagnostic

__all__ = ["memory_pass"]


def _diagnostic(f) -> Diagnostic:
    return Diagnostic.of(f.rule, f.message, proc=f.proc,
                         position=f.position, task=f.task, obj=f.obj)


def memory_pass(ctx) -> list[Diagnostic]:
    profile = ctx.profile
    capacity = ctx.capacity
    head, chains = plan_findings(profile, capacity, ctx.plan)
    diags = [_diagnostic(f) for f in head]

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
    return diags + [_diagnostic(f) for f in chains]

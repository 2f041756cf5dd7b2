"""Property: the MAP planner equals the frozen reference planner.

``plan_maps`` walks memoised per-processor first-use / last-use tables
(prefix sums and last-use buckets); ``reference_plan_maps`` is the
name-keyed planner it replaced, kept verbatim under ``tests/``.  Every
``MapPlan`` — its capacity and, through the name view of the planner's
id tables, positions, frees (in order), allocations (in order),
notifications and ``covers_through`` — must be equal at every capacity,
including the non-executable verdicts below ``MIN_MEM``.
"""

from hypothesis import given, strategies as st

from reference_plan_maps import reference_plan_maps

from repro.core import (
    analyze_memory,
    cyclic_placement,
    dts_order,
    mpo_order,
    owner_compute_assignment,
    rcp_order,
    tree_order,
)
from repro.core.maps import plan_maps
from repro.errors import NonExecutableScheduleError
from repro.graph import generators as gen

ORDERINGS = (rcp_order, mpo_order, dts_order, tree_order)

params = st.tuples(
    st.sampled_from(("trace", "layered")),
    st.integers(0, 10_000),
    st.integers(1, 5),
    st.sampled_from(ORDERINGS),
)


def build(family, seed, procs, order_fn):
    if family == "trace":
        g = gen.random_trace(36, 7, seed=seed)
    else:
        g = gen.layered_random(5, 5, seed=seed)
    pl = cyclic_placement(g, procs)
    return order_fn(g, pl, owner_compute_assignment(g, pl))


def outcome(planner, *args):
    try:
        plan = planner(*args)
        return ("plan", plan.capacity, plan.points)
    except NonExecutableScheduleError as err:
        return ("inf", err.processor, err.required, err.capacity)


@given(params, st.lists(st.floats(0.0, 1.2), min_size=1, max_size=6))
def test_plan_maps_equals_frozen_reference(case, fractions):
    sched = build(*case)
    prof = analyze_memory(sched)
    caps = {prof.min_mem, prof.tot, max(prof.min_mem - 1, 0)}
    caps |= {int(prof.tot * f) for f in fractions}
    # One profile for every capacity: the memoised tables are reused.
    for cap in sorted(caps, reverse=True):
        got = outcome(plan_maps, prof, cap)
        want = outcome(reference_plan_maps, sched, cap, prof)
        assert got == want, cap


def test_shipped_workloads_equal_frozen_reference():
    from repro.experiments import ExperimentContext

    ctx = ExperimentContext()
    for key, p in (("lu-goodwin", 4), ("etree15", 8)):
        for h in ("rcp", "mpo", "dts"):
            sched = ctx.schedule(key, p, h)
            prof = ctx.profile(key, p, h)
            for f in (1.0, 0.75, 0.5, 0.4, 0.25):
                cap = int(prof.tot * f)
                assert outcome(plan_maps, prof, cap) == outcome(
                    reference_plan_maps, sched, cap, prof
                ), (key, p, h, f)

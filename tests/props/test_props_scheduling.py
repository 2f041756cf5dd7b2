"""Property tests for the scheduling heuristics and the memory model."""

from hypothesis import given, settings, strategies as st

from repro.core import (
    analyze_memory,
    cyclic_placement,
    dts_order,
    gantt,
    mpo_order,
    owner_compute_assignment,
    plan_maps,
    rcp_order,
)
from repro.core.dts import dts_space_bound
from repro.errors import NonExecutableScheduleError
from repro.graph import generators as gen

params = st.tuples(
    st.integers(10, 50),  # tasks
    st.integers(3, 10),  # objects
    st.integers(0, 10_000),  # seed
    st.integers(2, 5),  # processors
)

ORDERINGS = (rcp_order, mpo_order, dts_order)


def make(params):
    n, m, seed, p = params
    g = gen.random_trace(n, m, seed=seed)
    pl = cyclic_placement(g, p)
    asg = owner_compute_assignment(g, pl)
    return g, pl, asg


@settings(max_examples=30, deadline=None)
@given(params)
def test_all_heuristics_produce_valid_schedules(ps):
    g, pl, asg = make(ps)
    for fn in ORDERINGS:
        s = fn(g, pl, asg)
        s.validate()
        assert gantt(s).makespan > 0  # raises on precedence conflicts


@settings(max_examples=30, deadline=None)
@given(params)
def test_memory_model_invariants(ps):
    """perm <= MIN_MEM <= TOT <= S1 * p (loose); usage sane."""
    g, pl, asg = make(ps)
    for fn in ORDERINGS:
        prof = analyze_memory(fn(g, pl, asg))
        for pp in prof.procs:
            assert pp.perm_bytes <= pp.min_mem <= pp.tot
        assert prof.min_mem <= prof.tot
        # every processor's permanent + volatile <= S1 (objects exist once
        # as permanent, at most once more as a volatile copy).
        assert prof.tot <= 2 * prof.s1


@settings(max_examples=30, deadline=None)
@given(params)
def test_theorem2_dts_bound(ps):
    """Theorem 2: DTS schedules run in perm + h volatile space."""
    g, pl, asg = make(ps)
    s = dts_order(g, pl, asg)
    assert analyze_memory(s).min_mem <= dts_space_bound(g, pl, asg)


@settings(max_examples=30, deadline=None)
@given(params)
def test_map_planner_matches_definition6(ps):
    """plan_maps succeeds exactly when capacity >= MIN_MEM."""
    g, pl, asg = make(ps)
    s = mpo_order(g, pl, asg)
    prof = analyze_memory(s)
    plan = plan_maps(prof, prof.min_mem)
    assert plan.avg_maps >= 1.0
    if prof.min_mem > max(pp.perm_bytes for pp in prof.procs):
        try:
            plan_maps(prof, prof.min_mem - 1)
            assert False, "expected NonExecutableScheduleError"
        except NonExecutableScheduleError:
            pass


@settings(max_examples=25, deadline=None)
@given(params, st.floats(0.0, 1.0))
def test_map_plan_respects_capacity_everywhere(ps, frac):
    """At any capacity in [MIN_MEM, TOT], walking the plan stays within
    budget and allocates each volatile exactly once."""
    g, pl, asg = make(ps)
    s = rcp_order(g, pl, asg)
    prof = analyze_memory(s)
    cap = int(prof.min_mem + frac * (prof.tot - prof.min_mem))
    plan = plan_maps(prof, cap)
    for q, pts in enumerate(plan.points):
        used = prof.procs[q].perm_bytes
        allocated = set()
        for mp in pts:
            for o in mp.frees:
                used -= g.object(o).size
                allocated.discard(o)
            for o in mp.allocs:
                assert o not in allocated  # allocated once
                allocated.add(o)
                used += g.object(o).size
            assert used <= cap
        assert sorted(
            o for mp in pts for o in mp.allocs
        ) == sorted(set(prof.procs[q].span))


@settings(max_examples=25, deadline=None)
@given(params)
def test_maps_monotone_in_capacity(ps):
    """More memory never needs more MAPs."""
    g, pl, asg = make(ps)
    s = rcp_order(g, pl, asg)
    prof = analyze_memory(s)
    caps = sorted({prof.min_mem, (prof.min_mem + prof.tot) // 2, prof.tot})
    counts = [plan_maps(prof, c).avg_maps for c in caps]
    assert counts == sorted(counts, reverse=True)

"""Property: the observed memory high-water mark of a managed run equals
the static prediction from the MAP plan.

:meth:`repro.core.maps.MapPlan.predicted_peaks` replays each MAP's
frees-then-allocs on top of the permanent bytes; since the simulator
performs exactly those operations (and allocations only grow between
MAPs), the :class:`~repro.obs.instruments.MemoryTimeline` high-water
marks must match per processor.  At ``capacity == MIN_MEM`` the maximum
over processors must equal the liveness bound itself (Definition 5/6).
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    analyze_memory,
    cyclic_placement,
    dts_order,
    mpo_order,
    owner_compute_assignment,
    rcp_order,
)
from repro.graph import generators as gen
from repro.graph.paper_example import schedule_b, schedule_c
from repro.machine import UNIT_MACHINE, simulate

params = st.tuples(
    st.integers(10, 40),
    st.integers(3, 8),
    st.integers(0, 10_000),
    st.integers(2, 5),
)
ORDERINGS = (rcp_order, mpo_order, dts_order)


def make(ps):
    n, m, seed, p = ps
    g = gen.random_trace(n, m, seed=seed)
    pl = cyclic_placement(g, p)
    return g, pl, owner_compute_assignment(g, pl)


def check_hwm(s, capacity):
    res = simulate(
        s, spec=UNIT_MACHINE, capacity=capacity, metrics=True
    )
    predicted = res.plan.predicted_peaks()
    observed = res.telemetry.memory.high_waters()
    assert observed == predicted, (observed, predicted)
    assert res.metrics["summary"]["hwm_matches_prediction"] is True
    assert max(observed, default=0) == res.peak_memory
    assert max(observed, default=0) <= capacity
    return res


def test_paper_example_hwm_at_min_mem():
    for s in (schedule_b(), schedule_c()):
        prof = analyze_memory(s)
        res = check_hwm(s, prof.min_mem)
        # the binding processor hits the liveness bound exactly
        assert max(res.telemetry.memory.high_waters()) == prof.min_mem


def test_paper_example_hwm_above_min_mem():
    s = schedule_c()
    prof = analyze_memory(s)
    for cap in range(prof.min_mem, prof.tot + 1):
        check_hwm(s, cap)


@settings(max_examples=30, deadline=None)
@given(params, st.sampled_from(ORDERINGS), st.floats(0.0, 1.0))
def test_hwm_matches_static_prediction(ps, order_fn, frac):
    g, pl, asg = make(ps)
    s = order_fn(g, pl, asg)
    prof = analyze_memory(s)
    cap = int(prof.min_mem + frac * (prof.tot - prof.min_mem))
    check_hwm(s, cap)


@settings(max_examples=20, deadline=None)
@given(params, st.sampled_from(ORDERINGS))
def test_hwm_is_min_mem_at_the_min_mem_capacity(ps, order_fn):
    """At the tightest feasible capacity the binding processor's peak is
    the MEM_REQ peak itself: MIN_MEM (Definition 6)."""
    g, pl, asg = make(ps)
    s = order_fn(g, pl, asg)
    prof = analyze_memory(s)
    res = check_hwm(s, prof.min_mem)
    assert max(res.telemetry.memory.high_waters()) == prof.min_mem

"""Property tests of Theorem 1: deadlock freedom and data consistency.

The simulator *verifies* data consistency internally (version checks on
every put, stale-copy checks on every arrival, capacity assertion at the
end); these properties drive it across random graphs, heuristics and
capacities and assert it always completes.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    analyze_memory,
    cyclic_placement,
    dts_order,
    gantt,
    mpo_order,
    owner_compute_assignment,
    rcp_order,
)
from repro.graph import generators as gen
from repro.graph.objects import DataObject
from repro.graph.taskgraph import TaskGraph
from repro.graph.tasks import Task
from repro.machine import UNIT_MACHINE, simulate
from repro.machine.simulator import ENGINES
from repro.machine.spec import COST_FIELDS, CRAY_T3D, MEIKO_CS2, MachineSpec

params = st.tuples(
    st.integers(10, 45),
    st.integers(3, 9),
    st.integers(0, 10_000),
    st.integers(2, 5),
)

ORDERINGS = (rcp_order, mpo_order, dts_order)


def make(ps):
    n, m, seed, p = ps
    g = gen.random_trace(n, m, seed=seed)
    pl = cyclic_placement(g, p)
    asg = owner_compute_assignment(g, pl)
    return g, pl, asg


@settings(max_examples=25, deadline=None)
@given(params, st.sampled_from(ORDERINGS), st.floats(0.0, 1.0))
def test_theorem1_no_deadlock_at_any_feasible_capacity(ps, order_fn, frac):
    """Any capacity >= MIN_MEM executes to completion, within capacity,
    with consistent data (internal checks)."""
    g, pl, asg = make(ps)
    s = order_fn(g, pl, asg)
    prof = analyze_memory(s)
    cap = int(prof.min_mem + frac * (prof.tot - prof.min_mem))
    res = simulate(s, spec=UNIT_MACHINE, capacity=cap)
    assert res.peak_memory <= cap
    assert res.parallel_time > 0


@settings(max_examples=25, deadline=None)
@given(params)
def test_baseline_matches_gantt_prediction(ps):
    """Without memory management the simulator equals the macro-dataflow
    model on the unit machine."""
    g, pl, asg = make(ps)
    s = rcp_order(g, pl, asg)
    res = simulate(s, spec=UNIT_MACHINE, memory_managed=False)
    assert res.task_finish_time == pytest.approx(gantt(s).makespan)


@settings(max_examples=20, deadline=None)
@given(params)
def test_memory_management_never_faster_than_baseline(ps):
    g, pl, asg = make(ps)
    s = mpo_order(g, pl, asg)
    prof = analyze_memory(s)
    base = simulate(s, spec=UNIT_MACHINE, memory_managed=False)
    tight = simulate(s, spec=UNIT_MACHINE, capacity=prof.min_mem)
    assert tight.parallel_time >= base.parallel_time - 1e-9


@settings(max_examples=20, deadline=None)
@given(params, st.floats(0.0, 4.0))
def test_overheads_scale_boundedly(ps, factor):
    """Scaling all memory-management overheads up monotonically
    increases the *charged protocol work*; the end-to-end time may show
    small discrete-event anomalies (shifted RA consumption points) but
    never improves materially."""
    g, pl, asg = make(ps)
    s = mpo_order(g, pl, asg)
    prof = analyze_memory(s)
    base_spec = MachineSpec(
        flop_rate=1.0, put_latency=0.05, byte_time=0.0, send_overhead=0.0,
        map_overhead=0.1, alloc_cost=0.01, free_cost=0.01,
        package_overhead=0.05, address_cost=0.01, ra_cost=0.02,
    )
    r1 = simulate(s, spec=base_spec, capacity=prof.min_mem)
    r2 = simulate(
        s, spec=base_spec.scaled_overheads(1.0 + factor),
        capacity=prof.min_mem,
    )
    oh1 = sum(st.overhead_time for st in r1.stats)
    oh2 = sum(st.overhead_time for st in r2.stats)
    assert oh2 >= oh1 * (1.0 + factor) - 1e-9 or oh2 >= oh1 - 1e-9
    assert r2.parallel_time >= 0.9 * r1.parallel_time


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 10), st.integers(0, 500), st.integers(2, 4))
def test_commuting_reduction_consistent(leaves, seed, p):
    """Commuting groups execute in schedule-dependent orders but the
    timed execution always completes (the numeric equivalence is covered
    by the sparse Cholesky tests)."""
    g = gen.reduction_tree(leaves)
    pl = cyclic_placement(g, p)
    asg = owner_compute_assignment(g, pl)
    for fn in ORDERINGS:
        s = fn(g, pl, asg)
        prof = analyze_memory(s)
        res = simulate(s, spec=UNIT_MACHINE, capacity=prof.min_mem)
        assert res.parallel_time > 0


def doubled_weights(g):
    """Copy of ``g`` with every task weight doubled (same names, sizes,
    program order and edges)."""
    h = TaskGraph()
    for o in g.objects():
        h.add_object(DataObject(o.name, o.size))
    for t in g.tasks():
        h.add_task(Task(t.name, t.reads, t.writes, 2 * t.weight, t.commute))
    for u, v, objs in g.edges():
        if objs:
            for ob in objs:
                h.add_edge(u, v, ob)
        else:
            h.add_edge(u, v)
    return h.freeze()


@given(st.integers(0, 10_000), st.integers(2, 4), st.sampled_from(ORDERINGS),
       st.sampled_from((CRAY_T3D, MEIKO_CS2)))
def test_doubling_every_cost_doubles_pt_exactly(seed, p, order_fn, spec):
    """Metamorphic: doubling every task weight, every machine cost and
    the inspector's comm model keeps every heuristic's orders and
    doubles PT exactly (times are sums and maxima of costs, and scaling
    by 2 is exact in binary floating point), on both engines, at
    MIN_MEM and at TOT."""
    g = gen.layered_random(4, 5, seed=seed)
    g2 = doubled_weights(g)
    spec2 = replace(spec, **{f: 2 * getattr(spec, f) for f in COST_FIELDS})
    schedules = []
    for graph, sp in ((g, spec), (g2, spec2)):
        pl = cyclic_placement(graph, p)
        asg = owner_compute_assignment(graph, pl)
        schedules.append(order_fn(graph, pl, asg, sp.comm_model()))
    s, s2 = schedules
    assert s2.orders == s.orders
    prof = analyze_memory(s)
    for cap in (prof.min_mem, prof.tot):
        for engine in ENGINES:
            r = simulate(s, spec=spec, capacity=cap, engine=engine)
            r2 = simulate(s2, spec=spec2, capacity=cap, engine=engine)
            assert r2.parallel_time == 2 * r.parallel_time

"""Property tests of the DCG construction (section 4.2 invariants)."""

from hypothesis import given, settings, strategies as st

from repro.core.dcg import build_dcg, slice_volatile_space, task_association
from repro.core import cyclic_placement, owner_compute_assignment, dts_order, analyze_memory
from repro.core.dts import dts_space_bound
from repro.graph import generators as gen
from repro.graph.builder import is_source_task

params = st.tuples(
    st.integers(10, 50),
    st.integers(3, 10),
    st.integers(0, 10_000),
)


@settings(max_examples=30, deadline=None)
@given(params)
def test_every_task_in_exactly_one_slice(ps):
    n, m, seed = ps
    g = gen.random_trace(n, m, seed=seed)
    dcg = build_dcg(g)
    seen: dict[str, int] = {}
    for s, tasks in enumerate(dcg.comp_tasks):
        for t in tasks:
            assert t not in seen
            seen[t] = s
    assert set(seen) == set(g.task_names)


@settings(max_examples=30, deadline=None)
@given(params)
def test_association_nodes_share_component(ps):
    """All of a task's associated data nodes are in one SCC (the doubly
    directed edge rule)."""
    n, m, seed = ps
    g = gen.random_trace(n, m, seed=seed)
    dcg = build_dcg(g)
    for t in g.task_names:
        assoc = task_association(g, t)
        comps = {dcg.component[o] for o in assoc if o in dcg.component}
        assert len(comps) <= 1


@settings(max_examples=30, deadline=None)
@given(params)
def test_slice_order_respects_dependences(ps):
    """If a dependence edge connects tasks of different slices, the
    source's slice comes first (the topological slice order)."""
    n, m, seed = ps
    g = gen.random_trace(n, m, seed=seed)
    dcg = build_dcg(g)
    slice_of = dcg.slice_of()
    for u, v, _o in g.edges():
        if is_source_task(u) or is_source_task(v):
            continue
        assert slice_of[u] <= slice_of[v]


@settings(max_examples=25, deadline=None)
@given(params, st.integers(2, 5))
def test_h_bounds_actual_dts_volatile_peak(ps, p):
    """Definition 7's H(R, L) upper-bounds the volatile bytes any
    processor holds while executing a DTS schedule."""
    n, m, seed = ps
    g = gen.random_trace(n, m, seed=seed)
    pl = cyclic_placement(g, p)
    asg = owner_compute_assignment(g, pl)
    dcg = build_dcg(g)
    h = max(slice_volatile_space(dcg, pl, asg), default=0)
    sched = dts_order(g, pl, asg)
    prof = analyze_memory(sched)
    for pp in prof.procs:
        vola_peak = max(
            (req - pp.perm_bytes for req in pp.mem_req), default=0
        )
        assert vola_peak <= h


@settings(max_examples=25, deadline=None)
@given(params, st.integers(2, 5))
def test_bound_monotone_in_procs(ps, p):
    """More processors never increase the Theorem-2 bound beyond the
    single-processor data footprint."""
    n, m, seed = ps
    g = gen.random_trace(n, m, seed=seed)
    pl = cyclic_placement(g, p)
    asg = owner_compute_assignment(g, pl)
    assert dts_space_bound(g, pl, asg) <= 2 * g.total_data()

"""A sweep frees each (workload, procs) group's tables when the group
finishes (:meth:`ExperimentContext.release`), without changing what it
returns or what its counters report."""

import gc
import tracemalloc

import pytest

from repro.core.index import graph_index
from repro.experiments import ExperimentContext
from repro.experiments.sweep import full_sweep

#: The sweep: two groups of one graph, then a group of another.
GROUPS = (("chol15", 2), ("chol15", 4), ("lu-goodwin", 2))
#: A list heuristic and DTS (which adds the graph's DCG) at a capacity
#: with and without MAPs; tracemalloc makes every cell expensive.
CELLS = dict(heuristics=("rcp", "dts"), fractions=(1.0, 0.5))


def sweep_group(ctx, key, p, **kw):
    return full_sweep(ctx, workloads=(key,), procs=(p,), **CELLS, **kw)


def counts(counters: dict) -> dict:
    """The counters without the phase timers (``*_s``), which differ
    from run to run."""
    return {k: v for k, v in counters.items() if not k.endswith("_s")}


@pytest.fixture(scope="module")
def alone():
    """Each group swept on a fresh context: ``[(records, counters)]``."""
    out = []
    for key, p in GROUPS:
        ctx = ExperimentContext()
        out.append((sweep_group(ctx, key, p), ctx.engine_counters()))
    return out


@pytest.fixture(scope="module")
def swept():
    """The groups swept in turn on one context under tracemalloc, with
    the heap retained after the first group and after the last, both
    above the built problems."""
    ctx = ExperimentContext()
    for key in dict(GROUPS):
        ctx.problem(key)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        records, retained = [], []
        for key, p in GROUPS:
            records.append(sweep_group(ctx, key, p))
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0] - base)
    finally:
        if started:
            tracemalloc.stop()
    return ctx, records, retained


def test_records_equal_each_group_alone(swept, alone):
    _, records, _ = swept
    assert records == [recs for recs, _ in alone]


def test_parallel_records_equal_each_group_alone(alone):
    ctx = ExperimentContext()
    records = full_sweep(ctx, workloads=("chol15",), procs=(2, 4), jobs=2,
                         **CELLS)
    records += sweep_group(ctx, "lu-goodwin", 2, jobs=2)
    assert records == [rec for recs, _ in alone for rec in recs]


def test_counters_sum_over_released_groups(swept, alone):
    ctx, _, _ = swept
    total: dict = {}
    for _, counters in alone:
        for k, v in counters.items():
            total[k] = total.get(k, 0) + v
    got = ctx.engine_counters()
    assert counts(got) == counts(total)
    assert got.keys() == total.keys()
    assert got["compiled_runs"] > 0 and got["plan_s"] > 0


def test_released_groups_leave_no_tables(swept):
    ctx, _, _ = swept
    assert not ctx._groups
    for key, p in GROUPS:
        prob = ctx.problem(key)
        placement = prob.placement(p)
        gi = graph_index(prob.graph)
        mk = gi._mapping_key(placement, prob.assignment(placement))
        assert mk not in gi._mappings


def test_retained_memory_stays_near_one_group(swept):
    """Without release the retained heap grows with every group (the
    unreleased sweep measured 1.6x); with it, only the second graph's
    graph-level memos are added."""
    _, _, retained = swept
    assert retained[-1] <= 1.3 * retained[0], retained


def test_release_of_an_unknown_group_is_a_no_op():
    ctx = ExperimentContext()
    ctx.release("lu-goodwin", 2)
    assert ctx.engine_counters() == {}


def test_a_released_group_is_rebuilt_on_demand():
    ctx = ExperimentContext()
    first = ctx.run_cell("lu-goodwin", 2, "rcp", 0.5)
    runs = ctx.engine_counters()["compiled_runs"]
    ctx.release("lu-goodwin", 2)
    assert ctx.run_cell("lu-goodwin", 2, "rcp", 0.5) == first
    assert ctx.engine_counters()["compiled_runs"] == 2 * runs

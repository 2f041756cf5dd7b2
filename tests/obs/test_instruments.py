"""Built-in instruments: residency identity, counters, queues, memory.

The load-bearing invariant is the residency identity — for every
processor the per-state residency buckets (EXE + the four overhead kinds
+ idle + done) partition ``[0, parallel_time]`` exactly, so their sum
equals the parallel time to floating-point roundoff.
"""

import pytest

from repro.core import analyze_memory, cyclic_placement, mpo_order, owner_compute_assignment
from repro.graph import generators as gen
from repro.graph.paper_example import paper_example_graph, schedule_b, schedule_c
from repro.machine import CRAY_T3D, UNIT_MACHINE, simulate
from repro.obs import (
    HOOKS,
    MAP_OVERHEAD_KINDS,
    NULL_INSTRUMENT,
    OVERHEAD_KINDS,
    RESIDENCY_KEYS,
    Counters,
    Instrument,
    MetricsSuite,
    MultiInstrument,
)


def run_paper(spec=UNIT_MACHINE, capacity=8, **kw):
    return simulate(schedule_c(), spec=spec, capacity=capacity, metrics=True, **kw)


def run_random(seed, spec=CRAY_T3D, frac=0.5):
    g = gen.random_trace(30, 6, seed=seed)
    pl = cyclic_placement(g, 3)
    s = mpo_order(g, pl, owner_compute_assignment(g, pl))
    prof = analyze_memory(s)
    cap = int(prof.min_mem + frac * (prof.tot - prof.min_mem))
    return simulate(s, spec=spec, capacity=cap, metrics=True)


# -- residency ----------------------------------------------------------


@pytest.mark.parametrize("spec", [UNIT_MACHINE, CRAY_T3D])
def test_residency_partitions_parallel_time(spec):
    res = run_paper(spec=spec)
    suite = res.telemetry
    for q in range(len(res.stats)):
        r = suite.residency.residency(q)
        assert set(r) == set(RESIDENCY_KEYS)
        assert sum(r.values()) == pytest.approx(res.parallel_time, abs=1e-9)
        assert all(v >= -1e-12 for v in r.values()), r


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_residency_identity_random_graphs(seed):
    res = run_random(seed)
    for q in range(len(res.stats)):
        r = res.telemetry.residency.residency(q)
        assert sum(r.values()) == pytest.approx(res.parallel_time, abs=1e-9)


def test_residency_matches_processor_stats():
    res = run_paper(spec=CRAY_T3D)
    for q, st in enumerate(res.stats):
        r = res.telemetry.residency.residency(q)
        assert r["exe"] == pytest.approx(st.busy_time, abs=1e-12)
        overhead = sum(r[k] for k in OVERHEAD_KINDS)
        assert overhead == pytest.approx(st.overhead_time, abs=1e-9)


def test_map_overhead_frac_is_map_kinds_only():
    res = run_random(3)
    suite = res.telemetry
    pt = res.parallel_time
    for q in range(len(res.stats)):
        r = suite.residency.residency(q)
        want = sum(r[k] for k in MAP_OVERHEAD_KINDS) / pt
        assert suite.residency.map_overhead_frac(q) == pytest.approx(want)
    total = sum(
        suite.residency.map_overhead_frac(q) for q in range(len(res.stats))
    ) / len(res.stats)
    assert suite.residency.map_overhead_frac() == pytest.approx(total)


def test_fractions_sum_to_one():
    res = run_paper()
    for q in range(len(res.stats)):
        f = res.telemetry.residency.fractions(q)
        assert sum(f.values()) == pytest.approx(1.0, abs=1e-9)


# -- memory -------------------------------------------------------------


def test_memory_high_water_equals_sim_peak():
    res = run_paper()
    hwm = res.telemetry.memory.high_waters()
    assert max(hwm) == res.peak_memory
    for q, st in enumerate(res.stats):
        assert hwm[q] == st.peak_memory


def test_memory_samples_monotone_time():
    res = run_random(11)
    for samples in res.telemetry.memory.samples:
        ts = [t for t, _ in samples]
        assert ts == sorted(ts)


# -- counters & queues --------------------------------------------------


def test_counters_against_plan_and_trace():
    res = run_paper()
    c = res.telemetry.counters.counts
    assert c["tasks"] == paper_example_graph().num_tasks
    assert c["maps"] == sum(res.plan.maps_per_proc)
    assert c["allocs"] >= c["frees"]
    assert c["puts"] == c["data_arrivals"]
    assert c["puts_drained"] <= c["puts_suspended"]
    assert c["packages_sent"] == res.plan.total_packages


def test_queue_depth_tracks_suspensions():
    res = run_paper()
    q = res.telemetry.queues
    assert q.max_suspended == max(q.max_suspq)
    assert sum(d * n for d, n in q.suspq_hist.items()) >= q.max_suspended
    total_suspensions = sum(q.suspq_hist.values())
    assert total_suspensions == res.telemetry.counters.counts["puts_suspended"]


# -- instrument plumbing ------------------------------------------------


def test_null_instrument_is_disabled():
    assert NULL_INSTRUMENT.enabled is False
    # all hooks exist on the base class (null-object contract)
    for name in HOOKS:
        assert callable(getattr(NULL_INSTRUMENT, name))
    # no-op hooks accept their documented arguments
    NULL_INSTRUMENT.on_run_begin(0.0, 2, 8, True)
    NULL_INSTRUMENT.on_exe(0.0, 1.0, 0, "T[1]")
    NULL_INSTRUMENT.on_run_end(19.0)


def test_multi_instrument_drops_disabled_children():
    class Probe(Instrument):
        def __init__(self):
            self.calls = []

        def on_run_begin(self, t, nprocs, capacity, memory_managed):
            self.calls.append(("begin", nprocs))

        def on_run_end(self, t):
            self.calls.append(("end", t))

    probe = Probe()
    multi = MultiInstrument([NULL_INSTRUMENT, probe])
    assert multi.children == (probe,)
    assert multi.enabled
    multi.on_run_begin(0.0, 2, 8, True)
    multi.on_run_end(19.0)
    assert probe.calls == [("begin", 2), ("end", 19.0)]
    empty = MultiInstrument([NULL_INSTRUMENT])
    assert not empty.enabled


class Recorder(Instrument):
    """Records every hook call, in order."""

    def __init__(self):
        self.calls = []


def _recording(name):
    def hook(self, *args):
        self.calls.append((name, args))

    return hook


for _name in HOOKS:
    setattr(Recorder, _name, _recording(_name))
del _name


def test_nested_composites_dispatch_like_a_direct_attach(monkeypatch):
    direct = Recorder()
    simulate(schedule_c(), spec=UNIT_MACHINE, capacity=8, instrument=direct)
    assert {name for name, _ in direct.calls} >= {"on_state", "on_exe"}

    # Count every call that reaches the base no-op of ``on_state``.
    no_op_calls = []
    monkeypatch.setattr(
        Instrument, "on_state", lambda self, *args: no_op_calls.append(self)
    )

    class Quiet(Instrument):
        """Overrides ``on_exe`` only."""

        def __init__(self):
            self.tasks = []

        def on_exe(self, t0, t1, proc, task):
            self.tasks.append(task)

    nested, quiet, suite = Recorder(), Quiet(), MetricsSuite()
    outer = MultiInstrument([suite, MultiInstrument([nested, quiet])])
    simulate(schedule_c(), spec=UNIT_MACHINE, capacity=8, instrument=outer)
    assert nested.calls == direct.calls
    assert quiet.tasks == [args[3] for name, args in direct.calls
                           if name == "on_exe"]
    assert suite.counters.counts["tasks"] == paper_example_graph().num_tasks
    # Neither Quiet nor any suite child that keeps the base on_state
    # is dispatched to.
    assert no_op_calls == []


def test_multi_instrument_binds_hooks_at_construction():
    class Probe(Instrument):
        def on_run_end(self, parallel_time):
            pass

    probe, other = Probe(), Probe()
    single = MultiInstrument([probe])
    # One subscriber: the hook *is* the child's bound method; no
    # subscriber: the inherited no-op.
    assert single.on_run_end == probe.on_run_end
    assert type(single).on_exe is Instrument.on_exe
    assert "on_exe" not in vars(single)
    # An instance-level hook set before composing is a subscriber.
    seen = []
    other.on_exe = lambda t0, t1, proc, task: seen.append(task)
    MultiInstrument([single, other]).on_exe(0.0, 1.0, 0, "T[1]")
    assert seen == ["T[1]"]


@pytest.mark.parametrize("clone", ["pickle", "deepcopy"])
def test_cloned_composite_dispatches_to_its_own_children(clone):
    import copy
    import pickle

    outer = MultiInstrument([MetricsSuite(), MultiInstrument([Recorder()])])
    twin = (pickle.loads(pickle.dumps(outer)) if clone == "pickle"
            else copy.deepcopy(outer))
    suite, inner = twin.children
    simulate(schedule_c(), spec=UNIT_MACHINE, capacity=8, instrument=twin)
    assert suite.counters.counts["tasks"] == paper_example_graph().num_tasks
    assert inner.children[0].calls
    assert outer.children[1].children[0].calls == []


def test_user_instrument_receives_events():
    counts = Counters()
    res = simulate(
        schedule_c(), spec=UNIT_MACHINE, capacity=8, instrument=counts
    )
    # user instrument alone (metrics=False): no metrics doc, but the
    # instrument saw the run
    assert res.metrics is None
    assert counts.counts["tasks"] == paper_example_graph().num_tasks
    assert counts.counts["maps"] > 0


def test_schedule_b_and_c_differ_in_residency():
    res_b = simulate(schedule_b(), spec=UNIT_MACHINE, capacity=9, metrics=True)
    res_c = run_paper()
    # both satisfy the identity; the orderings give different idle time
    for res in (res_b, res_c):
        for q in range(len(res.stats)):
            r = res.telemetry.residency.residency(q)
            assert sum(r.values()) == pytest.approx(res.parallel_time, abs=1e-9)

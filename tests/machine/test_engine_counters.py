"""Engine introspection counters (:attr:`CompiledSchedule.counters`)
and the recorded engine (:attr:`SimResult.engine`).

The counters are pure bookkeeping: they must never change what a run
computes, only describe the lowering/plan caches and engine selection
so the runtime trace can report them.
"""

from repro.conformance import fault_preset
from repro.graph.paper_example import paper_example_graph, schedule_b
from repro.machine import UNIT_MACHINE, Simulator
from repro.machine.simulator import ENGINE_COUNTER_KEYS, CompiledSchedule


def make_cs():
    return CompiledSchedule(schedule_b(paper_example_graph()))


def sim(cs, engine="interpreted", **kw):
    return Simulator(
        spec=UNIT_MACHINE, capacity=cs.profile.tot, compiled=cs,
        engine=engine, **kw,
    )


class TestCounterKeys:
    def test_fresh_schedule_has_zeroed_counters(self):
        cs = make_cs()
        assert set(ENGINE_COUNTER_KEYS) <= set(cs.counters)
        assert all(cs.counters[k] == 0 for k in ENGINE_COUNTER_KEYS)

    def test_timer_keys_are_floats(self):
        cs = make_cs()
        for k in ENGINE_COUNTER_KEYS:
            if k.endswith("_s"):
                assert isinstance(cs.counters[k], float)


class TestPlanCacheCounters:
    def test_miss_then_hit(self):
        cs = make_cs()
        cap = cs.profile.tot
        cs.plan_for(cap)
        assert cs.counters["plan_misses"] == 1
        assert cs.counters["plan_hits"] == 0
        cs.plan_for(cap)
        assert cs.counters["plan_misses"] == 1
        assert cs.counters["plan_hits"] == 1
        assert cs.counters["plan_s"] >= 0.0

    def test_distinct_capacities_are_distinct_misses(self):
        cs = make_cs()
        cs.plan_for(cs.profile.tot)
        cs.plan_for(cs.profile.tot + 1)
        assert cs.counters["plan_misses"] == 2


class TestEngineSelectionCounters:
    def test_compiled_run_counts_lowering_and_exec_plans(self):
        cs = make_cs()
        sim(cs, engine="compiled").run()
        assert cs.counters["compiled_runs"] == 1
        assert cs.counters["interpreted_runs"] == 0
        assert cs.counters["lower_misses"] == 1
        assert cs.counters["plan_misses"] == 1
        assert cs.counters["exec_plan_misses"] == 1
        # Same configuration again: the lowering and the MAP plan are
        # reused; every run counts one MAP-table lookup, never a hit.
        sim(cs, engine="compiled").run()
        assert cs.counters["compiled_runs"] == 2
        assert cs.counters["lower_misses"] == 1
        assert cs.counters["plan_misses"] == 1
        assert cs.counters["plan_hits"] >= 1
        assert cs.counters["exec_plan_misses"] == 2
        assert cs.counters["exec_plan_hits"] == 0
        assert cs.counters["exec_s"] > 0.0

    def test_interpreted_run_counts(self):
        cs = make_cs()
        res = sim(cs).run()
        assert res.engine == "interpreted"
        assert cs.counters["interpreted_runs"] == 1
        assert cs.counters["compiled_runs"] == 0

    def test_counters_do_not_change_results(self):
        a, b = make_cs(), make_cs()
        ra = sim(a, engine="compiled").run()
        rb = sim(b, engine="compiled").run()
        sim(b, engine="compiled").run()  # extra run only bumps counters
        assert ra.parallel_time == rb.parallel_time


def assert_observed_run_is_compiled(**kw):
    """An observed or faulted run (``kw``) is counted as a compiled run,
    tallies no fallback and equals the oracle's run."""
    cs = make_cs()
    res = sim(cs, engine="compiled", **kw).run()
    assert res.engine == "compiled"
    assert not [k for k in cs.counters if k.startswith("fallback:")]
    assert cs.counters["compiled_runs"] == 1
    assert cs.counters["interpreted_runs"] == 0
    oracle = sim(cs, **kw).run()
    assert res.parallel_time == oracle.parallel_time
    assert res.stats == oracle.stats
    return res, oracle


class TestFallbackReasons:
    def test_metrics_fallback_is_tallied_and_recorded(self):
        """A metrics run, faulted or not, runs compiled and tallies no
        fallback."""
        res, oracle = assert_observed_run_is_compiled(metrics=True)
        assert res.metrics == oracle.metrics
        res, oracle = assert_observed_run_is_compiled(
            metrics=True, faults=fault_preset("consume", seed=3))
        assert res.metrics == oracle.metrics

    def test_trace_fallback(self):
        """So does a traced run, faulted or not."""
        res, oracle = assert_observed_run_is_compiled(trace=True)
        assert res.trace == oracle.trace
        res, oracle = assert_observed_run_is_compiled(
            trace=True, faults=fault_preset("delay"))
        assert res.trace == oracle.trace

    def test_explicit_interpreted_run_is_not_a_fallback(self):
        cs = make_cs()
        res = sim(cs, metrics=True, faults=fault_preset("slow")).run()
        assert res.engine == "interpreted"
        assert cs.counters["interpreted_runs"] == 1
        assert cs.counters["compiled_runs"] == 0
        assert not [k for k in cs.counters if k.startswith("fallback:")]

"""Static verdict vs dynamic execution: the differential contract.

* Clean seeded plans: statically clean AND the checked run is clean.
* The buggy-planner overwrite demo: flagged statically with the same
  ``P0 -> P1 -> P0`` cycle the dynamic deadlock witness shows.
* Timing faults never change the static verdict (they do not touch the
  plan), matching the golden fault matrix.
* Hypothesis property: on seeded graphs from ``tests/conftest.py`` the
  static deadlock verdict matches the simulator — a statically clean
  plan simulates to completion at the analyzed capacity.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import INVARIANT_RULES, analyze_plan, analyze_schedule
from repro.analysis.harness import analyze_batch, analyze_overwrite_demo
from repro.conformance import fault_preset
from repro.conformance.check import check_batch, overwrite_demo
from repro.conformance.invariants import INVARIANTS
from repro.machine.simulator import CompiledSchedule, Simulator
from repro.machine.spec import UNIT_MACHINE
from repro.rapid.inspector import order_with


def test_clean_batch_agrees_with_checked_runs():
    static = analyze_batch(3, graphs=3)
    dynamic = check_batch(3, graphs=3)
    assert len(static) == len(dynamic) > 0
    for s, d in zip(static, dynamic):
        assert s.label == d.label
        assert s.capacity == d.capacity  # same knob, same resolution
        assert s.ok, s.render()
        assert d.ok, d.summary()


def test_overwrite_demo_static_matches_dynamic():
    static = analyze_overwrite_demo()
    dynamic = overwrite_demo()
    assert not static.ok and not dynamic.ok
    # Same protocol verdict: the slot overwrite and the resulting
    # deadlock, with a textually identical cycle line.
    [deadlock] = [d for d in static.errors if d.rule == "SA301"]
    cycle_line = [ln for ln in deadlock.witness.splitlines()
                  if ln.strip().startswith("cycle:")][0].strip()
    assert cycle_line == "cycle: P0 -> P1 -> P0"
    assert cycle_line in dynamic.deadlock
    # The dynamic violations carry the static rule codes.
    assert {v.rule for v in dynamic.violations} == {"SA302"}
    assert {d.rule for d in static.errors} == {"SA301", "SA302"}


def test_cost_budget_cells_are_clean():
    """The cells ``benchmarks/bench_cost_budgets.py`` prices the analyzer
    on analyze clean; on lu-goodwin (P=32, rcp, half of TOT) a checked
    run of the same memoised plan agrees."""
    from repro.conformance import InvariantChecker
    from repro.experiments import ExperimentContext
    from repro.graph.paper_example import schedule_c

    ctx = ExperimentContext()
    for sched in (schedule_c(), ctx.schedule("etree15", 2, "rcp")):
        assert analyze_schedule(sched, fraction=1.0).ok
    cs = ctx.compiled("lu-goodwin", 32, "rcp")
    cap = cs.profile.tot // 2
    report = analyze_plan(cs.plan_for(cap))
    checker = InvariantChecker(cs)
    Simulator(spec=ctx.spec, capacity=cap, compiled=cs,
              instrument=checker).run()
    assert report.ok, report.render()
    assert checker.ok


@pytest.mark.parametrize("fault", ["slow", "delay", "jitter", "consume"])
def test_timing_faults_keep_static_verdict(fault):
    """Timing faults do not touch the plan: the static twin of a faulted
    batch is the unfaulted batch, report for report."""
    plain = analyze_batch(5, graphs=2)
    faulted = analyze_batch(5, graphs=2, faults=fault_preset(fault))
    assert [r.summary() for r in plain] == [r.summary() for r in faulted]
    assert all(r.ok for r in faulted)


def test_tighten_fault_shifts_capacity_only():
    """The tighten knob pins the capacity to MIN_MEM; the analysis stays
    clean of errors (the SA103 headroom advisory may appear)."""
    reports = analyze_batch(5, graphs=2, faults=fault_preset("tighten"))
    assert all(r.ok for r in reports)


def test_invariant_rule_bridge_is_total():
    """Every dynamic invariant maps to a static rule and vice versa the
    codes exist in the catalogue."""
    assert set(INVARIANT_RULES) == set(INVARIANTS)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 10_000),
    procs=st.integers(2, 4),
    heuristic=st.sampled_from(("rcp", "mpo", "dts")),
    frac=st.floats(0.0, 1.0),
)
def test_static_deadlock_verdict_matches_simulator(
    seeded_case, seed, procs, heuristic, frac
):
    """Statically clean => the simulator completes at that capacity
    (no DeadlockError, no capacity abort)."""
    case = seeded_case(seed=seed, procs=procs)
    s = order_with(heuristic, case.graph, case.placement, case.assignment)
    report = analyze_schedule(s, fraction=frac)
    assert report.ok, report.render()
    compiled = CompiledSchedule(s)
    res = Simulator(
        spec=UNIT_MACHINE, capacity=report.capacity, compiled=compiled
    ).run()
    assert res.parallel_time > 0

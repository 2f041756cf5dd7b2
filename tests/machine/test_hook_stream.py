"""Differential tests of the instrument hook stream: an observed run on
the array-compiled engine must call every :class:`Instrument` hook the
interpreted oracle calls, in the same order, with equal arguments.

A :class:`Recorder` logs each hook call with its arguments; each case
runs under both engines and compares the logs call for call, and the
results exactly.  A run that raises (a protocol violation, a deadlock)
must raise the same error, with the same message, after the same stream
prefix.  The cases:

* the sweep-grid workloads in all three execution modes (managed,
  ``preknown_addresses``, unmanaged baseline) on ``CRAY_T3D`` and
  ``MEIKO_CS2``;
* the tie-heavy :data:`UNIT_MACHINE` paper example, where many events
  share a timestamp;
* a seeded property over ``layered_random`` DAGs × every heuristic ×
  capacities {MIN_MEM, TOT};
* the error cases of the engine differential suite, observed;
* every active fault preset at two seeds, on the paper example, the
  sweep workloads and the layered property, and the overwrite demo's
  deadlock.
"""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from repro.conformance import FAULT_KINDS, fault_preset
from repro.conformance.check import overwrite_scenario
from repro.core import cyclic_placement, owner_compute_assignment
from repro.core.maps import MapPlan
from repro.errors import ReproError, SchedulingError
from repro.graph import generators as gen
from repro.graph.paper_example import paper_example_graph, schedule_b, schedule_c
from repro.machine import CRAY_T3D, MEIKO_CS2, UNIT_MACHINE, Simulator
from repro.machine.simulator import ENGINES, CompiledSchedule, ProcessorStats
from repro.obs.instrument import HOOKS, Instrument
from repro.rapid.inspector import HEURISTICS, order_with

STAT_FIELDS = [f.name for f in dataclasses.fields(ProcessorStats)]


class Recorder(Instrument):
    """Logs every hook call as ``(hook, args)``; list arguments are
    copied to tuples so later plan edits cannot alter the log."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []


def _recording(name):
    def hook(self, *args):
        self.calls.append((name, tuple(
            tuple(a) if isinstance(a, list) else a for a in args)))

    hook.__name__ = name
    return hook


for _name in HOOKS:
    setattr(Recorder, _name, _recording(_name))


def observe(make_sim):
    """Run ``make_sim(engine, recorder)`` on each engine; return
    ``{engine: (outcome, calls)}`` where ``outcome`` is the result or
    ``(error type, message)``."""
    out = {}
    for engine in ENGINES:
        rec = Recorder()
        try:
            outcome = make_sim(engine, rec).run()
        except ReproError as err:
            outcome = (type(err).__name__, str(err))
        out[engine] = (outcome, rec.calls)
    return out


def assert_same_stream(make_sim):
    """Both engines make the same hook calls and the same result (or
    raise the same error); returns the compiled outcome and its calls."""
    runs = observe(make_sim)
    (ra, ca), (rb, cb) = runs["interpreted"], runs["compiled"]
    assert len(ca) == len(cb)
    for i, (a, b) in enumerate(zip(ca, cb)):
        assert a == b, f"hook call {i} differs"
    if isinstance(ra, tuple) or isinstance(rb, tuple):
        assert ra == rb
        return rb, cb
    assert ra.engine == "interpreted"
    assert rb.engine == "compiled"
    assert ra.parallel_time == rb.parallel_time
    assert ra.task_finish_time == rb.task_finish_time
    for sa, sb in zip(ra.stats, rb.stats):
        for f in STAT_FIELDS:
            assert getattr(sa, f) == getattr(sb, f), f
    return rb, cb


def edited(plan, edit):
    """A new plan of ``plan``'s capacity and profile, each MAP replaced
    by ``edit(mp)``."""
    return MapPlan(capacity=plan.capacity, profile=plan.profile,
                   points=[[edit(mp) for mp in pts] for pts in plan.points])


def modes(prof):
    """``(capacity, Simulator kwargs)`` of the three execution modes."""
    for cap in sorted({prof.min_mem, prof.tot}):
        yield cap, {}
        yield cap, dict(preknown_addresses=True)
    yield prof.tot, dict(memory_managed=False)


class TestSweepWorkloads:
    @pytest.mark.parametrize("spec", [CRAY_T3D, MEIKO_CS2],
                             ids=["t3d", "meiko"])
    @pytest.mark.parametrize("key,procs", [("lu-goodwin", 4), ("chol15", 2)])
    def test_modes(self, key, procs, spec):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext()
        for h in ("rcp", "mpo", "dts"):
            cs = ctx.compiled(key, procs, h)
            prof = cs.profile
            for frac in (1.0, 0.5):
                cap = int(math.floor(prof.tot * frac))
                if cap < prof.min_mem:
                    continue
                for kw in ({}, dict(preknown_addresses=True)):
                    res, calls = assert_same_stream(
                        lambda e, r, cap=cap, kw=kw: Simulator(
                            spec=spec, capacity=cap, compiled=cs, engine=e,
                            instrument=r, **kw))
                    assert calls[0][0] == "on_run_begin"
                    assert calls[-1] == ("on_run_end", (res.parallel_time,))
            assert_same_stream(
                lambda e, r: Simulator(
                    spec=spec, compiled=cs, memory_managed=False, engine=e,
                    instrument=r))


class TestTieHeavy:
    @pytest.mark.parametrize("sched_f", [schedule_b, schedule_c])
    def test_paper_example(self, sched_f):
        cs = CompiledSchedule(sched_f(paper_example_graph()))
        for cap, kw in modes(cs.profile):
            assert_same_stream(
                lambda e, r, cap=cap, kw=kw: Simulator(
                    spec=UNIT_MACHINE, capacity=cap, compiled=cs, engine=e,
                    instrument=r, **kw))

    @pytest.mark.parametrize("seed", range(3))
    def test_unit_layered(self, seed):
        g = gen.layered_random(5, 4, seed=seed, min_weight=1.0,
                               max_weight=1.0, min_size=1, max_size=1)
        pl = cyclic_placement(g, 3)
        s = order_with("rcp", g, pl, owner_compute_assignment(g, pl))
        cs = CompiledSchedule(s)
        for cap, kw in modes(cs.profile):
            assert_same_stream(
                lambda e, r, cap=cap, kw=kw: Simulator(
                    spec=UNIT_MACHINE, capacity=cap, compiled=cs, engine=e,
                    instrument=r, **kw))


@given(
    seed=st.integers(0, 10_000),
    procs=st.integers(1, 4),
    heuristic=st.sampled_from(HEURISTICS),
    spec=st.sampled_from((UNIT_MACHINE, CRAY_T3D, MEIKO_CS2)),
)
def test_layered_random_streams(seed, procs, heuristic, spec):
    """Every heuristic's schedule of a random layered DAG, at MIN_MEM
    and TOT, gives equal hook streams on both engines."""
    g = gen.layered_random(4, 4, seed=seed)
    pl = cyclic_placement(g, procs)
    asg = owner_compute_assignment(g, pl)
    base = order_with("rcp", g, pl, asg)
    cs0 = CompiledSchedule(base)
    for cap in sorted({cs0.profile.min_mem, cs0.profile.tot}):
        try:
            s = order_with(heuristic, g, pl, asg, comm=spec.comm_model(),
                           capacity=cap)
        except SchedulingError:
            continue  # e.g. exact: nothing fits within the node budget
        cs = CompiledSchedule(s)
        prof = cs.profile
        for c in sorted({prof.min_mem, prof.tot}):
            assert_same_stream(
                lambda e, r, c=c: Simulator(
                    spec=spec, capacity=c, compiled=cs, engine=e,
                    instrument=r))


class TestErrorPrefix:
    """Protocol errors and deadlocks raise the same error after the
    same hook-stream prefix."""

    def test_deadlock(self):
        """A plan without notifications passes the entry check and
        deadlocks mid-run."""
        cs = CompiledSchedule(schedule_c(paper_example_graph()))
        plan = edited(cs.plan_for(9),
                      lambda mp: dataclasses.replace(mp, notifications={}))
        outcome, calls = assert_same_stream(
            lambda e, r: Simulator(spec=UNIT_MACHINE, compiled=cs,
                                   plan=plan, engine=e, instrument=r))
        assert outcome[0] == "DeadlockError"
        assert calls and calls[-1][0] != "on_run_end"

    def test_double_allocation(self):
        """Refused by both engines before any hook runs (SA206)."""
        cs = CompiledSchedule(schedule_c(paper_example_graph()))
        first = cs.plan_for(9).points[1][0]
        plan = edited(cs.plan_for(9), lambda mp: dataclasses.replace(
            mp, allocs=mp.allocs + mp.allocs[:1]) if mp is first else mp)
        outcome, calls = assert_same_stream(
            lambda e, r: Simulator(spec=UNIT_MACHINE, compiled=cs,
                                   plan=plan, engine=e, instrument=r))
        assert outcome == (
            "SimulationError",
            f"MAP allocates {first.allocs[0]!r} which is already allocated")
        assert calls == []

    def test_landing_space_violation(self):
        """A MAP plan with the receiver's allocations moved away would
        take data with no space to land in; both engines refuse it
        before any hook runs (SA205)."""
        cs = CompiledSchedule(schedule_b(paper_example_graph()))
        planned = cs.plan_for(cs.profile.tot)
        first = next(mp for pts in planned.points for mp in pts if mp.allocs)
        plan = edited(planned, lambda mp: dataclasses.replace(
            mp, allocs=()) if mp is first else mp)
        outcome, calls = assert_same_stream(
            lambda e, r: Simulator(spec=UNIT_MACHINE, compiled=cs,
                                   plan=plan, engine=e, instrument=r))
        assert outcome[0] == "SimulationError"
        assert "but no MAP allocated it" in outcome[1]
        assert calls == []


class TestObservedCells:
    """``run_cell`` attaches only the instruments its columns read; the
    cells equal across engines and equal the full suite's summary."""

    @pytest.mark.parametrize("fraction", [1.0, 0.75])
    def test_columns_match_the_full_suite(self, fraction):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext()
        ran = 0
        for h in ("rcp", "mpo", "dts"):
            cells = {
                e: ctx.run_cell("lu-goodwin", 4, h, fraction,
                                columns=("metrics", "check"), engine=e)
                for e in ENGINES
            }
            cell = cells["compiled"]
            if not cell.executable:
                continue
            ran += 1
            assert cells["interpreted"] == cell
            assert cell.violations == 0
            full = Simulator(
                spec=ctx.spec, capacity=cell.capacity,
                compiled=ctx.compiled("lu-goodwin", 4, h), metrics=True,
            ).run().metrics["summary"]
            assert cell.map_overhead_frac == full["map_overhead_frac"]
            assert cell.max_hwm == full["max_hwm"]
            assert cell.max_suspq == full["max_suspq"]
        assert ran


#: The presets that perturb the run itself (``tighten`` only picks the
#: capacity, which the cases below sweep anyway).
ACTIVE_FAULTS = [k for k in FAULT_KINDS if fault_preset(k).active]


@pytest.fixture(scope="module")
def sweep_ctx():
    from repro.experiments import ExperimentContext

    return ExperimentContext()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ACTIVE_FAULTS)
class TestFaultPresets:
    """A fault-injected run stays on the compiled engine, and its hook
    stream, result or error equals the oracle's."""

    def test_paper_example(self, kind, seed):
        faults = fault_preset(kind, seed)
        for sched_f in (schedule_b, schedule_c):
            cs = CompiledSchedule(sched_f(paper_example_graph()))
            for cap, kw in modes(cs.profile):
                assert_same_stream(
                    lambda e, r, cap=cap, kw=kw: Simulator(
                        spec=UNIT_MACHINE, capacity=cap, compiled=cs,
                        engine=e, instrument=r, faults=faults, **kw))

    @pytest.mark.parametrize("key,procs", [("lu-goodwin", 4), ("chol15", 2)])
    def test_sweep_workloads(self, kind, seed, key, procs, sweep_ctx):
        """Managed at MIN_MEM (the most MAPs) and preknown at TOT."""
        faults = fault_preset(kind, seed)
        for h in ("rcp", "mpo", "dts"):
            cs = sweep_ctx.compiled(key, procs, h)
            for cap, kw in ((cs.profile.min_mem, {}),
                            (cs.profile.tot, dict(preknown_addresses=True))):
                assert_same_stream(
                    lambda e, r, cap=cap, kw=kw: Simulator(
                        spec=CRAY_T3D, capacity=cap, compiled=cs, engine=e,
                        instrument=r, faults=faults, **kw))

    def test_layered(self, kind, seed):
        faults = fault_preset(kind, seed)
        for gseed in range(4):
            g = gen.layered_random(4, 4, seed=gseed)
            pl = cyclic_placement(g, 3)
            asg = owner_compute_assignment(g, pl)
            for h in ("rcp", "mpo", "dts"):
                cs = CompiledSchedule(order_with(h, g, pl, asg))
                for cap in sorted({cs.profile.min_mem, cs.profile.tot}):
                    assert_same_stream(
                        lambda e, r, cap=cap: Simulator(
                            spec=MEIKO_CS2, capacity=cap, compiled=cs,
                            engine=e, instrument=r, faults=faults))


@pytest.mark.parametrize("seed", [0, 1])
def test_overwrite_demo_deadlock(seed):
    """The overwrite demo (:func:`repro.conformance.check.overwrite_demo`)
    loses an address package; both engines raise the same deadlock
    after the same hook prefix."""
    from repro.conformance import FaultSpec

    plan = overwrite_scenario()
    cs = CompiledSchedule(plan.schedule, profile=plan.profile)
    cap = plan.capacity
    outcome, calls = assert_same_stream(
        lambda e, r: Simulator(
            spec=UNIT_MACHINE, compiled=cs, capacity=cap, plan=plan,
            engine=e, instrument=r,
            faults=FaultSpec(seed=seed, overwrite_slots=True)))
    assert outcome[0] == "DeadlockError"
    assert "blocked processors: P0:REC, P1:END" in outcome[1]
    assert calls[-1][0] != "on_run_end"

"""Differential tests: the array-compiled engine against the
interpreted oracle.

Every comparison here is *exact* — ``==`` on floats, never
``approx``/``allclose`` — because the compiled engine's contract
(:mod:`repro.machine.compiled`) is bit-identical time arithmetic, not
numerical closeness.  The suite covers:

* the sweep-grid workloads under all three execution modes (managed,
  preknown addresses, unmanaged baseline) and both cost models;
* tie-heavy :data:`UNIT_MACHINE` cases, where many events share a
  timestamp and agreement proves the engines break ties identically;
* error parity — protocol violations and deadlocks must raise the same
  exception type with the same message;
* engine selection — observed runs, fault-injected runs and a
  caller-supplied plan all run compiled, exactly;
* the cache-staleness guards (schedule mutation behind a memoised
  :class:`CompiledSchedule`, and per-:class:`MachineSpec` execution
  plans).
"""

import dataclasses
import math

import pytest

from repro.core import dts_order, mpo_order, rcp_order
from repro.core.maps import MapPlan
from repro.errors import (
    DeadlockError,
    NonExecutableScheduleError,
    SimulationError,
)
from repro.graph.paper_example import paper_example_graph, schedule_b, schedule_c
from repro.machine import CRAY_T3D, MEIKO_CS2, UNIT_MACHINE, Simulator
from repro.machine.simulator import ENGINES, CompiledSchedule, ProcessorStats

STAT_FIELDS = [f.name for f in dataclasses.fields(ProcessorStats)]

ORDERS = {"rcp": rcp_order, "mpo": mpo_order, "dts": dts_order}


def assert_exact_match(make_sim):
    """Run ``make_sim(engine)`` under both engines; either both raise
    the same error with the same message, or every result field is
    exactly equal.  Returns the compiled-engine result (or None)."""
    outcomes = {}
    for engine in ("interpreted", "compiled"):
        try:
            outcomes[engine] = ("ok", make_sim(engine).run())
        except (SimulationError, DeadlockError) as e:
            outcomes[engine] = (type(e).__name__, str(e))
    ka, kb = outcomes["interpreted"], outcomes["compiled"]
    if ka[0] != "ok" or kb[0] != "ok":
        assert (ka[0], ka[1]) == (kb[0], kb[1])
        return None
    ra, rb = ka[1], kb[1]
    assert ra.engine == "interpreted"
    assert rb.engine == "compiled", "compiled run silently fell back"
    assert ra.parallel_time == rb.parallel_time
    assert ra.task_finish_time == rb.task_finish_time
    assert ra.plan is rb.plan
    assert ra.capacity == rb.capacity
    assert ra.memory_managed == rb.memory_managed
    for sa, sb in zip(ra.stats, rb.stats):
        for f in STAT_FIELDS:
            assert getattr(sa, f) == getattr(sb, f), f
    return rb


class TestPaperExample:
    """The worked Figure 2 example: unit costs, many simultaneous
    events — the tie-breaking stress case."""

    @pytest.mark.parametrize("sched_f", [schedule_b, schedule_c])
    @pytest.mark.parametrize("mode", ["managed", "preknown", "baseline"])
    def test_exact(self, sched_f, mode):
        g = paper_example_graph()
        cs = CompiledSchedule(sched_f(g))
        prof = cs.profile
        caps = sorted({prof.min_mem, (prof.min_mem + prof.tot) // 2, prof.tot})
        for cap in caps:
            if mode == "baseline" and cap < prof.tot:
                continue
            kw = (
                dict(memory_managed=False)
                if mode == "baseline"
                else dict(preknown_addresses=(mode == "preknown"))
            )
            assert_exact_match(
                lambda e, cap=cap, kw=kw: Simulator(
                    spec=UNIT_MACHINE, capacity=cap, compiled=cs, engine=e, **kw
                )
            )


class TestSeededGrids:
    """Random trace / layered graphs across heuristics, cost models,
    capacities and modes."""

    @pytest.mark.parametrize("family", ["trace", "layered"])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("heuristic", ["rcp", "mpo", "dts"])
    def test_exact(self, family, seed, heuristic, seeded_case):
        case = seeded_case(seed=seed, procs=3, family=family)
        s = ORDERS[heuristic](case.graph, case.placement, case.assignment)
        cs = CompiledSchedule(s)
        prof = cs.profile
        for spec in (UNIT_MACHINE, CRAY_T3D, MEIKO_CS2):
            for cap in sorted({prof.min_mem, prof.tot}):
                for preknown in (False, True):
                    assert_exact_match(
                        lambda e, spec=spec, cap=cap, pk=preknown: Simulator(
                            spec=spec, capacity=cap, compiled=cs, engine=e,
                            preknown_addresses=pk,
                        )
                    )
            assert_exact_match(
                lambda e, spec=spec: Simulator(
                    spec=spec, capacity=prof.tot, compiled=cs,
                    memory_managed=False, engine=e,
                )
            )


def _sweep_cell(key, procs, heuristic="rcp"):
    """One grid cell; the RCP cells keep their ``key-procs`` ids."""
    tail = "" if heuristic == "rcp" else f"-{heuristic}"
    return pytest.param(key, procs, heuristic, id=f"{key}-{procs}{tail}")


class TestSweepWorkloads:
    """The benchmark workloads the sweep grid actually runs, and the
    cells ``benchmarks/bench_cost_budgets.py`` times: serial chol15
    (every task silent) and the P=32 observer cells.  chol15 P=2 under
    DTS and chol24 P=2 under the tree heuristic hold the longest silent
    runs of the multi-processor grid cells (400 and 424 tasks)."""

    @pytest.mark.parametrize("key,procs,heuristic", [
        _sweep_cell("lu-goodwin", 4), _sweep_cell("lu-goodwin", 8),
        _sweep_cell("lu-goodwin", 32), _sweep_cell("chol15", 1),
        _sweep_cell("chol15", 32), _sweep_cell("chol15", 2, "dts"),
        _sweep_cell("chol24", 2, "tree"),
    ])
    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_exact(self, key, procs, heuristic, fraction):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext()
        cs = ctx.compiled(key, procs, heuristic)
        prof = ctx.profile(key, procs, heuristic)
        cap = int(math.floor(prof.tot * fraction))
        if prof.min_mem > cap:
            # Not executable: both engines refuse it with one message.
            msgs = set()
            for e in ENGINES:
                with pytest.raises(NonExecutableScheduleError) as ei:
                    Simulator(spec=ctx.spec, capacity=cap, compiled=cs,
                              engine=e).run()
                msgs.add(str(ei.value))
            assert len(msgs) == 1
            return
        assert_exact_match(
            lambda e: Simulator(spec=ctx.spec, capacity=cap, compiled=cs, engine=e)
        )

    def test_serial_schedule_exact(self):
        """A serial schedule: every task is silent, the compiled run
        collapses to segment kernels."""
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext()
        cs = ctx.compiled("lu-goodwin", 1, "rcp")
        prof = ctx.profile("lu-goodwin", 1, "rcp")
        res = assert_exact_match(
            lambda e: Simulator(
                spec=ctx.spec, capacity=prof.tot, compiled=cs, engine=e
            )
        )
        assert res is not None and res.parallel_time > 0


class TestErrorParity:
    def test_deadlock_identical(self):
        """A constructed address-handshake deadlock raises the same
        DeadlockError (type, message, diagnosis) from both engines."""
        g = paper_example_graph()
        cs = CompiledSchedule(schedule_c(g))
        # A copy of the capacity-9 plan without notifications: space
        # exists but owners never learn addresses, so data never flows.
        # No memory-pass rule reads notifications, so both engines
        # accept the plan and must diagnose the identical deadlock.
        planned = cs.plan_for(9)
        plan = MapPlan(capacity=9, profile=cs.profile, points=[
            [dataclasses.replace(mp, notifications={}) for mp in pts]
            for pts in planned.points])
        errs = {}
        for engine in ("interpreted", "compiled"):
            with pytest.raises(DeadlockError) as ei:
                Simulator(
                    spec=UNIT_MACHINE, capacity=9, compiled=cs, plan=plan,
                    engine=engine,
                ).run()
            errs[engine] = ei.value
        a, b = errs["interpreted"], errs["compiled"]
        assert str(a) == str(b)
        assert a.blocked == b.blocked
        assert a.completed == b.completed
        assert a.details == b.details

    def test_notification_to_a_non_owner(self):
        """A package sent to a processor that does not own its objects
        teaches no owner their addresses (SA303).  No memory-pass rule
        reads notifications, so both engines run the plan, and the
        owner's sends stay suspended in both: one deadlock."""
        from repro.core import cyclic_placement, owner_compute_assignment
        from repro.graph import generators as gen

        g = gen.layered_random(5, 6, seed=1)
        pl = cyclic_placement(g, 3)
        cs = CompiledSchedule(rcp_order(g, pl, owner_compute_assignment(g, pl)))
        cap = cs.profile.tot
        points = [list(pts) for pts in cs.plan_for(cap).points]
        p, i, owner = next((p, i, d) for p, pts in enumerate(points)
                           for i, mp in enumerate(pts)
                           for d in mp.notifications)
        other = ({0, 1, 2} - {p, owner}).pop()
        notes = dict(points[p][i].notifications)
        notes[other] = notes.get(other, ()) + notes.pop(owner)
        points[p][i] = dataclasses.replace(points[p][i], notifications=notes)
        plan = MapPlan(capacity=cap, points=points, profile=cs.profile)
        for engine in ENGINES:
            with pytest.raises(DeadlockError):
                Simulator(spec=UNIT_MACHINE, compiled=cs, plan=plan,
                          engine=engine).run()
        assert_exact_match(lambda e: Simulator(
            spec=UNIT_MACHINE, compiled=cs, plan=plan, engine=e))

    def test_corrupted_plan_error_identical(self):
        """A double allocation in a copy of the planner's plan is
        refused by both engines when the simulator is built, with the
        analyzer's SA206 message."""
        g = paper_example_graph()
        cs = CompiledSchedule(schedule_c(g))
        points = [list(pts) for pts in cs.plan_for(9).points]
        mp = points[1][0]
        assert mp.allocs
        points[1][0] = dataclasses.replace(
            mp, allocs=mp.allocs + mp.allocs[:1])  # duplicate allocation
        plan = MapPlan(capacity=9, points=points, profile=cs.profile)
        msgs = {}
        for engine in ("interpreted", "compiled"):
            with pytest.raises(SimulationError) as ei:
                Simulator(spec=UNIT_MACHINE, capacity=9, compiled=cs,
                          plan=plan, engine=engine)
            msgs[engine] = str(ei.value)
        assert msgs["interpreted"] == msgs["compiled"] == (
            f"MAP allocates {mp.allocs[0]!r} which is already allocated")


    @staticmethod
    def _refused(cs, plan, match):
        """Both engines refuse ``plan`` when the simulator is built,
        naming the processor and the position."""
        for engine in ENGINES:
            with pytest.raises(SimulationError, match=match):
                Simulator(spec=UNIT_MACHINE, capacity=9, compiled=cs,
                          plan=plan, engine=engine)

    @staticmethod
    def _with_map(cs, mp):
        """The capacity-9 plan of ``cs`` with ``mp`` appended to its
        processor's MAPs."""
        points = [list(pts) for pts in cs.plan_for(9).points]
        points[mp.proc].append(mp)
        return MapPlan(capacity=9, points=points, profile=cs.profile)

    def test_two_maps_at_one_position(self):
        """A second MAP at a position is refused, not dropped."""
        from repro.core.maps import MapPoint

        cs = CompiledSchedule(schedule_c(paper_example_graph()))
        pos = cs.plan_for(9).points[1][-1].position
        plan = self._with_map(cs, MapPoint(proc=1, position=pos))
        self._refused(cs, plan, f"^P1 has two MAPs at position {pos}$")

    def test_map_listed_under_another_processor(self):
        """A MAP in another processor's list is refused, not moved."""
        from repro.core.maps import MapPoint

        cs = CompiledSchedule(schedule_c(paper_example_graph()))
        points = [list(pts) for pts in cs.plan_for(9).points]
        points[0].append(MapPoint(proc=1, position=1))
        plan = MapPlan(capacity=9, points=points, profile=cs.profile)
        self._refused(cs, plan, "^P0's MAP list holds a MAP of P1$")

    def test_plan_for_another_processor_count(self):
        """A plan without a MAP list for every processor is refused."""
        cs = CompiledSchedule(schedule_c(paper_example_graph()))
        plan = MapPlan(capacity=9, points=cs.plan_for(9).points[:1],
                       profile=cs.profile)
        self._refused(cs, plan, "^the plan has 1 MAP lists for 2 processors$")

    def test_map_past_the_order(self):
        """A MAP at or past the end of its order is refused, not
        skipped."""
        from repro.core.maps import MapPoint

        cs = CompiledSchedule(schedule_c(paper_example_graph()))
        n = len(cs.schedule.orders[0])
        plan = self._with_map(cs, MapPoint(proc=0, position=n))
        self._refused(cs, plan, f"^P0 has a MAP at position {n}, outside "
                                f"its order of {n} tasks$")


def assert_observed_run_stays_compiled(cs, **kw):
    """An observed or faulted run (``kw``) stays on the compiled engine,
    tallies no fallback and equals the oracle's run exactly; returns both
    results."""
    res = assert_exact_match(
        lambda e: Simulator(spec=UNIT_MACHINE, capacity=9, compiled=cs,
                            engine=e, **kw)
    )
    assert res is not None and res.engine == "compiled"
    assert not [k for k in cs.counters if k.startswith("fallback:")]
    oracle = Simulator(spec=UNIT_MACHINE, capacity=9, compiled=cs,
                       engine="interpreted", **kw).run()
    return res, oracle


class TestFallbacks:
    """Nothing falls back to the interpreted oracle: observed runs,
    fault-injected runs and a caller-supplied plan stay on the compiled
    engine, and ``SimResult.engine`` says so."""

    @pytest.fixture()
    def cs(self):
        g = paper_example_graph()
        return CompiledSchedule(schedule_c(g))

    def test_metrics_falls_back(self, cs):
        """A metrics run no longer falls back: it stays compiled."""
        res, oracle = assert_observed_run_stays_compiled(cs, metrics=True)
        assert res.metrics is not None
        assert res.metrics == oracle.metrics

    def test_trace_falls_back(self, cs):
        """A traced run no longer falls back: it stays compiled."""
        res, oracle = assert_observed_run_stays_compiled(cs, trace=True)
        assert res.trace
        assert res.trace == oracle.trace

    def test_enabled_instrument_falls_back(self, cs):
        """An enabled instrument no longer forces a fallback."""
        from repro.conformance import InvariantChecker

        checker = InvariantChecker(cs)
        assert_observed_run_stays_compiled(cs, instrument=checker)
        assert checker.ok

    def test_disabled_instrument_stays_compiled(self, cs):
        """A disabled instrument is never called, on either engine."""
        from repro.obs import Instrument

        calls = []

        class Recorder(Instrument):
            enabled = False

            def __getattribute__(self, name):
                if name.startswith("on_"):
                    calls.append(name)
                return super().__getattribute__(name)

        for engine in ENGINES:
            res = Simulator(
                spec=UNIT_MACHINE, capacity=9, compiled=cs,
                instrument=Recorder(), engine=engine,
            ).run()
            assert res.engine == engine
        assert calls == []

    def test_active_faults_fall_back(self, cs):
        """A faulted run stays compiled, counts as a compiled run and
        equals the oracle's."""
        from repro.conformance import FaultSpec

        assert_observed_run_stays_compiled(
            cs, faults=FaultSpec(put_latency_factor=2.0))
        assert cs.counters["compiled_runs"] == 1

    def test_inactive_faults_stay_compiled(self, cs):
        """An inactive FaultSpec never draws an injector, on either
        engine."""
        from repro.conformance import FaultSpec

        class Tripwire(FaultSpec):
            def injector(self):
                raise AssertionError("inactive FaultSpec drew an injector")

        for engine in ENGINES:
            res = Simulator(
                spec=UNIT_MACHINE, capacity=9, compiled=cs,
                faults=Tripwire(), engine=engine,
            ).run()
            assert res.engine == engine

    def test_caller_plan_runs_compiled_exactly(self, cs):
        from repro.core.maps import plan_maps
        from repro.machine.compiled import get_exec_plan

        # A tighter plan than capacity 9 needs: more MAPs than the
        # memoised plan the compiled schedule would serve for 9.  It
        # runs at its own capacity.
        plan = plan_maps(cs.profile, cs.profile.min_mem)
        res = assert_exact_match(
            lambda e: Simulator(
                spec=UNIT_MACHINE, compiled=cs, plan=plan, engine=e,
            )
        )
        assert res is not None and res.plan is plan
        assert res.capacity == plan.capacity == cs.profile.min_mem
        # The run read the caller's own tables: nothing was planned or
        # memoised on the compiled schedule for it.
        assert cs.counters["plan_misses"] == 0 and cs._plans == {}
        assert get_exec_plan(cs, plan.capacity, UNIT_MACHINE, True,
                             plan=plan) is plan.tables
        assert plan.points != cs.plan_for(9).points

    def test_unknown_engine_rejected(self, cs):
        with pytest.raises(SimulationError):
            Simulator(spec=UNIT_MACHINE, capacity=9, compiled=cs, engine="jit")

    def test_auto_is_not_an_engine(self, cs):
        with pytest.raises(SimulationError, match="'interpreted' or 'compiled'"):
            Simulator(spec=UNIT_MACHINE, capacity=9, compiled=cs, engine="auto")


class TestCacheStaleness:
    """Satellite regressions: memoised plans must never survive a
    mutated schedule or leak across machine specs."""

    def _cs(self):
        g = paper_example_graph()
        return CompiledSchedule(schedule_c(g))

    def test_mutated_schedule_detected_by_run(self):
        cs = self._cs()
        sim = Simulator(spec=UNIT_MACHINE, capacity=9, compiled=cs, engine="compiled")
        Simulator(spec=UNIT_MACHINE, capacity=9, compiled=cs, engine="compiled").run()
        cs.schedule.orders[0].pop()  # mutate behind the cache
        with pytest.raises(SimulationError, match="stale"):
            sim.run()

    def test_mutated_schedule_detected_by_plan_for(self):
        cs = self._cs()
        cs.plan_for(9)
        cs.schedule.orders[1].pop()
        with pytest.raises(SimulationError, match="stale"):
            cs.plan_for(9)

    def test_exec_plans_keyed_by_spec(self, seeded_case):
        """Scaling the overhead costs between runs of the *same*
        compiled schedule must produce the scaled-spec result, not a
        stale cost table (the MAP tables hold no costs: a run prices
        its MAPs from its own spec)."""
        case = seeded_case(seed=0, procs=3)
        s = rcp_order(case.graph, case.placement, case.assignment)
        cs = CompiledSchedule(s)
        cap = cs.profile.tot
        results = {}
        for factor in (1.0, 8.0):
            spec = CRAY_T3D.scaled_overheads(factor)
            rb = assert_exact_match(
                lambda e, spec=spec: Simulator(
                    spec=spec, capacity=cap, compiled=cs, engine=e
                )
            )
            results[factor] = rb.parallel_time
        assert results[8.0] > results[1.0]

    def test_exec_plans_keyed_by_mode(self):
        """preknown and managed runs of one compiled schedule must not
        share lowered state."""
        cs = self._cs()
        for preknown in (False, True, False):
            assert_exact_match(
                lambda e, pk=preknown: Simulator(
                    spec=UNIT_MACHINE, capacity=9, compiled=cs, engine=e,
                    preknown_addresses=pk,
                )
            )


class TestRepeatability:
    def test_compiled_run_is_repeatable(self):
        """Run-local state: the same simulator yields identical results
        across repeated compiled runs (drift-free time arithmetic)."""
        g = paper_example_graph()
        cs = CompiledSchedule(schedule_c(g))
        sim = Simulator(spec=UNIT_MACHINE, capacity=9, compiled=cs, engine="compiled")
        r1, r2 = sim.run(), sim.run()
        assert r1.engine == r2.engine == "compiled"
        assert r1.parallel_time == r2.parallel_time
        for sa, sb in zip(r1.stats, r2.stats):
            assert sa == sb

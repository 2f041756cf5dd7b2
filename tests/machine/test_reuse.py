"""Plan / simulator reuse and compiled-schedule tests.

Regression suite for two state-leakage bugs and for the
:class:`~repro.machine.simulator.CompiledSchedule` layer:

* MAP execution marks used to be stored on the shared
  :class:`~repro.core.maps.MapPoint` objects and were only cleared when
  a run *succeeded* — after a failed run a reused plan silently skipped
  every already-marked MAP.  Execution progress is now run-local.
* ``SimResult.avg_maps`` excluded processors by ``busy_time > 0 or
  num_maps`` while ``MapPlan.avg_maps`` excluded empty task orders; the
  two now share the non-empty-order rule.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.analysis import analyze_schedule
from repro.core import (
    analyze_memory, cyclic_placement, mpo_order, owner_compute_assignment, rcp_order,
)
from repro.conformance import differential_check, run_check
from repro.core.maps import MapPlan, plan_maps
from repro.errors import DeadlockError, SchedulingError, SimulationError
from repro.graph.generators import random_trace
from repro.graph.paper_example import paper_example_graph, schedule_c
from repro.machine import CompiledSchedule, ProcessorStats, SimResult, Simulator
from repro.machine.spec import UNIT_MACHINE


def paper_setup():
    g = paper_example_graph()
    return schedule_c(g)


def silenced_p1(plan):
    """``plan`` with P1's notifications dropped: P1 waits for data its
    owner P0 never learns where to put, so a run deadlocks mid-run.
    P0's MAPs are ``plan``'s own objects."""
    return MapPlan(capacity=plan.capacity, profile=plan.profile, points=[
        plan.points[0],
        [replace(mp, notifications={}) for mp in plan.points[1]],
    ])


class TestPlanReuse:
    def test_plan_survives_failed_run(self):
        """A plan sharing MAPs with one that deadlocks mid-run must
        still execute correctly afterwards."""
        sc = paper_setup()
        plan = plan_maps(analyze_memory(sc), 8)
        with pytest.raises(DeadlockError):
            Simulator(sc, spec=UNIT_MACHINE, plan=silenced_p1(plan)).run()
        # The plan whose P0 MAPs the failed run executed.
        reused = Simulator(sc, spec=UNIT_MACHINE, plan=plan).run()
        fresh = Simulator(sc, spec=UNIT_MACHINE, capacity=8).run()
        assert reused.parallel_time == fresh.parallel_time
        assert [s.num_maps for s in reused.stats] == [
            s.num_maps for s in fresh.stats
        ]

    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    def test_plan_of_another_schedule_is_rejected(self, engine):
        """A MAP plan made for one schedule must not drive another: it
        could deadlock mid-run or, worse, return a parallel time."""
        g = random_trace(60, 10, seed=11)
        pl = cyclic_placement(g, 3)
        asg = owner_compute_assignment(g, pl)
        other = mpo_order(g, pl, asg)
        cs = CompiledSchedule(rcp_order(g, pl, asg))
        for cap in (analyze_memory(other).min_mem, analyze_memory(other).tot):
            plan = plan_maps(analyze_memory(other), cap)
            with pytest.raises(SimulationError, match="plan does not match"):
                Simulator(compiled=cs, spec=UNIT_MACHINE, capacity=cap,
                          plan=plan, engine=engine)
        # A plan of the compiled schedule itself runs, on either engine.
        cap = cs.profile.tot
        res = Simulator(compiled=cs, spec=UNIT_MACHINE, capacity=cap,
                        plan=plan_maps(cs.profile, cap), engine=engine).run()
        assert res.parallel_time == Simulator(
            compiled=cs, spec=UNIT_MACHINE, capacity=cap).run().parallel_time

    def test_profile_of_another_schedule_is_rejected(self):
        """A profile carries its schedule's numbering of the orders, which
        the compiled tables and the SA304 check read: a profile made for
        another schedule must not stand in for it."""
        g = random_trace(60, 10, seed=11)
        pl = cyclic_placement(g, 3)
        asg = owner_compute_assignment(g, pl)
        sched, other = rcp_order(g, pl, asg), analyze_memory(mpo_order(g, pl, asg))
        with pytest.raises(SimulationError, match="profile does not match"):
            CompiledSchedule(sched, profile=other)
        with pytest.raises(SchedulingError, match="profile does not match"):
            analyze_schedule(sched, profile=other)

    def test_plan_of_another_profile_is_rejected(self):
        """A run takes its profile from its compiled schedule: a plan made
        from another profile, even one of the same schedule, is refused."""
        cs = CompiledSchedule(paper_setup())
        plan = plan_maps(analyze_memory(cs.schedule), 8)
        with pytest.raises(SimulationError, match="plan does not match"):
            Simulator(compiled=cs, spec=UNIT_MACHINE, capacity=8, plan=plan)
        # Without ``compiled`` the run compiles the plan's own profile.
        sim = Simulator(cs.schedule, spec=UNIT_MACHINE, capacity=8, plan=plan)
        assert sim.compiled.profile is plan.profile

    def test_mismatched_inputs_can_no_longer_be_written(self):
        """The planner, the simulator and the analyzer take no loose
        profile or plan beside the schedule that made it."""
        g = random_trace(60, 10, seed=11)
        pl = cyclic_placement(g, 3)
        asg = owner_compute_assignment(g, pl)
        rcp, mpo = rcp_order(g, pl, asg), mpo_order(g, pl, asg)
        rcp_prof, mpo_prof = analyze_memory(rcp), analyze_memory(mpo)
        with pytest.raises(TypeError):
            plan_maps(rcp, rcp_prof.tot, mpo_prof)
        with pytest.raises(TypeError):
            Simulator(compiled=CompiledSchedule(rcp), profile=mpo_prof)
        with pytest.raises(TypeError):
            analyze_schedule(rcp, capacity=rcp_prof.tot,
                             plan=plan_maps(rcp_prof, rcp_prof.tot))

    def test_checked_run_takes_the_schedule_from_compiled(self):
        """``run_check`` and its oracle judge one schedule: the compiled
        one.  Another schedule beside it is refused, not silently
        compared against the compiled run."""
        g = random_trace(60, 10, seed=11)
        pl = cyclic_placement(g, 3)
        asg = owner_compute_assignment(g, pl)
        rcp, mpo = rcp_order(g, pl, asg), mpo_order(g, pl, asg)
        cs = CompiledSchedule(mpo)
        for check in (run_check, differential_check):
            with pytest.raises(SimulationError,
                               match="schedule does not match compiled.schedule"):
                check(rcp, compiled=cs)
        report = run_check(compiled=cs)
        assert report.ok and report.label == mpo.meta["heuristic"]
        assert differential_check(compiled=cs).ok

    def test_failure_is_repeatable(self):
        """A failing configuration fails the same way every run — no
        state carries over between attempts."""
        sc = paper_setup()
        plan = silenced_p1(plan_maps(analyze_memory(sc), 8))
        sim = Simulator(sc, spec=UNIT_MACHINE, plan=plan)
        errors = []
        for _ in range(3):
            with pytest.raises(DeadlockError) as ei:
                sim.run()
            errors.append((str(ei.value), ei.value.details))
        assert errors[0] == errors[1] == errors[2]

    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    def test_plan_sets_the_capacity(self, engine):
        """A run with a plan runs at the plan's capacity; another
        capacity, or the baseline mode, is refused."""
        sc = paper_setup()
        plan = plan_maps(analyze_memory(sc), 8)
        for kw in (dict(capacity=12), dict(capacity=7),
                   dict(memory_managed=False)):
            with pytest.raises(SimulationError):
                Simulator(sc, spec=UNIT_MACHINE, plan=plan, engine=engine,
                          **kw)
        for kw in ({}, dict(capacity=8)):
            res = Simulator(sc, spec=UNIT_MACHINE, plan=plan, engine=engine,
                            **kw).run()
            assert res.capacity == 8 and res.plan is plan
            assert res.parallel_time == Simulator(
                sc, spec=UNIT_MACHINE, capacity=8,
                engine=engine).run().parallel_time

    def test_two_simulators_share_one_plan(self):
        sc = paper_setup()
        plan = plan_maps(analyze_memory(sc), 8)
        r1 = Simulator(sc, spec=UNIT_MACHINE, capacity=8, plan=plan).run()
        r2 = Simulator(sc, spec=UNIT_MACHINE, capacity=8, plan=plan).run()
        assert r1.parallel_time == r2.parallel_time
        assert r1.avg_maps == r2.avg_maps
        assert [s.num_maps for s in r1.stats] == [s.num_maps for s in r2.stats]
        assert [s.busy_time for s in r1.stats] == [s.busy_time for s in r2.stats]

    def test_one_simulator_runs_repeatedly(self):
        g = random_trace(60, 10, seed=11)
        pl = cyclic_placement(g, 3)
        s = mpo_order(g, pl, owner_compute_assignment(g, pl))
        prof = analyze_memory(s)
        sim = Simulator(s, spec=UNIT_MACHINE, capacity=prof.min_mem)
        results = [sim.run() for _ in range(3)]
        assert len({r.parallel_time for r in results}) == 1
        assert len({r.avg_maps for r in results}) == 1

    def test_concurrent_runs_of_one_simulator(self):
        """run() state is fully run-local: parallel runs of one
        Simulator object all produce the reference result."""
        g = random_trace(80, 12, seed=5)
        pl = cyclic_placement(g, 4)
        s = mpo_order(g, pl, owner_compute_assignment(g, pl))
        prof = analyze_memory(s)
        sim = Simulator(s, spec=UNIT_MACHINE, capacity=prof.min_mem)
        reference = sim.run()
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _i: sim.run(), range(8)))
        for r in results:
            assert r.parallel_time == reference.parallel_time
            assert [s.num_maps for s in r.stats] == [
                s.num_maps for s in reference.stats
            ]


class TestCompiledSchedule:
    def test_compiled_matches_direct(self):
        sc = paper_setup()
        cs = CompiledSchedule(sc)
        for cap in (8, 9, 12):
            direct = Simulator(sc, spec=UNIT_MACHINE, capacity=cap).run()
            via = Simulator(spec=UNIT_MACHINE, capacity=cap, compiled=cs).run()
            assert via.parallel_time == direct.parallel_time
            assert via.avg_maps == direct.avg_maps
            assert via.peak_memory == direct.peak_memory

    def test_plan_memoised_per_capacity(self):
        cs = CompiledSchedule(paper_setup())
        assert cs.plan_for(8) is cs.plan_for(8)
        assert cs.plan_for(8) is not cs.plan_for(9)

    def test_mismatched_schedule_rejected(self):
        sc = paper_setup()
        g2 = random_trace(20, 5, seed=3)
        pl = cyclic_placement(g2, 2)
        other = mpo_order(g2, pl, owner_compute_assignment(g2, pl))
        cs = CompiledSchedule(other)
        with pytest.raises(SimulationError):
            Simulator(sc, spec=UNIT_MACHINE, compiled=cs)

    def test_needs_schedule_or_compiled(self):
        with pytest.raises(SimulationError):
            Simulator(spec=UNIT_MACHINE)


class TestAvgMapsRule:
    def test_simresult_uses_nonempty_order_rule(self):
        """A processor whose tasks are all zero-weight (busy_time 0, no
        MAPs in baseline mode) still counts toward the average; only
        task-less processors are excluded — matching MapPlan.avg_maps."""
        stats = [
            ProcessorStats(busy_time=1.0, num_maps=2, num_tasks=3),
            ProcessorStats(busy_time=0.0, num_maps=0, num_tasks=2),  # zero-weight tasks
            ProcessorStats(busy_time=0.0, num_maps=0, num_tasks=0),  # no tasks
        ]
        res = SimResult(
            parallel_time=1.0,
            task_finish_time=1.0,
            stats=stats,
            capacity=10,
            memory_managed=False,
        )
        # Old rule averaged over {P0} -> 2.0; the unified rule averages
        # over {P0, P1} -> 1.0.
        assert res.avg_maps == pytest.approx(1.0)

    def test_simresult_agrees_with_plan(self):
        sc = paper_setup()
        for cap in (8, 9, 12):
            res = Simulator(sc, spec=UNIT_MACHINE, capacity=cap).run()
            assert res.avg_maps == pytest.approx(res.plan.avg_maps)

    def test_zero_task_processor_excluded(self):
        from repro.core import rcp_order
        from repro.graph.generators import chain

        g = chain(3)
        pl = cyclic_placement(g, 4)  # more procs than tasks
        s = rcp_order(g, pl, owner_compute_assignment(g, pl))
        res = Simulator(s, spec=UNIT_MACHINE).run()
        assert res.avg_maps == pytest.approx(res.plan.avg_maps)
        assert all(st.num_tasks == len(o) for st, o in zip(res.stats, s.orders))

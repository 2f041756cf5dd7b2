"""Execution tracing, diagnostics and failure-injection tests.

The simulator carries defensive checks (version mismatches, arrivals
into unallocated space, capacity violations, deadlock detection).  These
tests corrupt inputs deliberately and assert the right error surfaces —
the "failure injection" axis of the suite.
"""

from dataclasses import replace

import pytest

from repro.core import analyze_memory, mpo_order, rcp_order
from repro.core.maps import MapPlan, plan_maps
from repro.core.schedule import Schedule
from repro.errors import (
    DeadlockError,
    PlacementError,
    SimulationError,
)
from repro.graph import GraphBuilder
from repro.graph.generators import random_trace
from repro.graph.paper_example import paper_example_graph, schedule_c
from repro.machine import Simulator, UNIT_MACHINE
from repro.core import cyclic_placement, owner_compute_assignment


def small_setup(seed=0, p=2):
    g = random_trace(30, 6, seed=seed)
    pl = cyclic_placement(g, p)
    asg = owner_compute_assignment(g, pl)
    s = mpo_order(g, pl, asg)
    return g, s


class TestTrace:
    def test_trace_collected(self):
        g, s = small_setup()
        res = Simulator(s, spec=UNIT_MACHINE, trace=True).run()
        assert res.trace
        kinds = {e.kind for e in res.trace}
        assert "start" in kinds and "map" in kinds and "end" in kinds

    def test_trace_sorted_by_time(self):
        g, s = small_setup(seed=1)
        res = Simulator(s, spec=UNIT_MACHINE, trace=True).run()
        times = [e.time for e in res.trace]
        assert times == sorted(times)

    def test_trace_contains_every_task_start(self):
        g, s = small_setup(seed=2)
        res = Simulator(s, spec=UNIT_MACHINE, trace=True).run()
        started = {e.detail for e in res.trace if e.kind == "start"}
        assert started == set(g.task_names)

    def test_trace_off_by_default(self):
        g, s = small_setup()
        res = Simulator(s, spec=UNIT_MACHINE).run()
        assert res.trace is None
        assert "not enabled" in res.render_trace()

    def test_render_trace(self):
        g, s = small_setup()
        res = Simulator(s, spec=UNIT_MACHINE, trace=True).run()
        text = res.render_trace(limit=5)
        assert "P0" in text and "more events" in text

    def test_suspend_events_under_pressure(self):
        g = paper_example_graph()
        sc = schedule_c(g)
        res = Simulator(sc, spec=UNIT_MACHINE, capacity=8, trace=True).run()
        assert any(e.kind == "suspend" for e in res.trace)


class TestFailureInjection:
    def test_owner_compute_violation_rejected(self):
        g, s = small_setup()
        # move one writing task to the wrong processor
        victim = next(t.name for t in g.tasks() if t.writes)
        bad = Schedule(
            g, s.placement, dict(s.assignment), [list(o) for o in s.orders]
        )
        wrong = (bad.assignment[victim] + 1) % 2
        bad.orders[bad.assignment[victim]].remove(victim)
        bad.orders[wrong].append(victim)
        bad.assignment[victim] = wrong
        with pytest.raises(PlacementError):
            Simulator(bad, spec=UNIT_MACHINE)

    @staticmethod
    def _first_map_of_p1(plan, edit):
        """A copy of ``plan`` whose P1 starts with ``edit`` of its first
        MAP."""
        points = [list(pts) for pts in plan.points]
        points[1][0] = edit(points[1][0])
        return MapPlan(capacity=plan.capacity, points=points,
                       profile=plan.profile)

    def test_corrupted_plan_missing_alloc(self):
        """Removing an allocation from the plan is refused by both
        engines when the simulator is built (SA205) — never silent
        corruption."""
        g = paper_example_graph()
        sc = schedule_c(g)
        prof = analyze_memory(sc)
        planned = plan_maps(prof, 9)
        # strip every allocation of P1's first MAP
        assert planned.points[1][0].allocs
        plan = self._first_map_of_p1(planned, lambda mp: replace(
            mp, allocs=(), notifications={}))
        for engine in ("compiled", "interpreted"):
            with pytest.raises(SimulationError,
                               match="but no MAP allocated it$"):
                Simulator(sc, spec=UNIT_MACHINE, capacity=9, plan=plan,
                          engine=engine)

    def test_corrupted_plan_double_alloc(self):
        g = paper_example_graph()
        sc = schedule_c(g)
        prof = analyze_memory(sc)
        plan = self._first_map_of_p1(plan_maps(prof, 9), lambda mp: replace(
            mp, allocs=mp.allocs + mp.allocs[:1]))  # duplicate allocation
        for engine in ("compiled", "interpreted"):
            with pytest.raises(SimulationError,
                               match="which is already allocated$"):
                Simulator(sc, spec=UNIT_MACHINE, capacity=9, plan=plan,
                          engine=engine)

    def test_missing_producer_rejected(self):
        """A volatile read with no producer anywhere is caught at build
        time (it would deadlock the address handshake)."""
        b = GraphBuilder(materialize_inputs=False)
        b.add_object("a", 1)
        b.add_object("x", 1)
        b.add_task("r", reads=("a",), writes=("x",))
        g = b.build()
        pl = cyclic_placement(g, 2, order=["a", "x"])
        asg = owner_compute_assignment(g, pl)
        s = rcp_order(g, pl, asg)
        with pytest.raises(SimulationError):
            Simulator(s, spec=UNIT_MACHINE)

    def test_deadlock_error_carries_details(self):
        """(Constructed) deadlocks self-diagnose."""
        g = paper_example_graph()
        sc = schedule_c(g)
        prof = analyze_memory(sc)
        planned = plan_maps(prof, 9)
        # Drop only the notifications: space exists but the owner never
        # learns the addresses -> data never flows -> REC deadlock.
        plan = MapPlan(capacity=9, profile=prof, points=[
            [replace(mp, notifications={}) for mp in pts]
            for pts in planned.points])
        with pytest.raises(DeadlockError) as ei:
            Simulator(sc, spec=UNIT_MACHINE, capacity=9, plan=plan).run()
        assert ei.value.details  # per-processor diagnosis attached

    def test_invalid_order_rejected(self):
        g, s = small_setup()
        # reverse one processor's order: violates dependences
        bad = Schedule(
            g, s.placement, dict(s.assignment),
            [list(reversed(s.orders[0])), list(s.orders[1])],
        )
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            Simulator(bad, spec=UNIT_MACHINE).run()

"""One crafted minimal plan per rule code (positive), plus the clean
negative: the planner's own output has zero findings.

The base scenario is a 2-processor producer/consumer pair: ``P1``
produces ``d1``/``d2`` (placed there, hence permanent on P1), ``P0``
consumes them (volatile on P0, so its MAP plan must allocate, notify
and free them).  Each test hand-builds a :class:`MapPlan` with exactly
one defect.
"""

import pytest

from repro.analysis import RULES, Severity, analyze_plan, analyze_schedule
from repro.analysis.harness import analyze_overwrite_demo
from repro.core.liveness import analyze_memory
from repro.core.maps import MapPlan, MapPoint, plan_maps
from repro.core.placement import Placement
from repro.core.schedule import Schedule
from repro.errors import SimulationError
from repro.graph.builder import GraphBuilder
from repro.machine.simulator import Simulator
from repro.machine.spec import UNIT_MACHINE


def crafted_schedule() -> Schedule:
    b = GraphBuilder()
    b.add_object("a", 1)
    b.add_object("d1", 2)
    b.add_object("d2", 2)
    b.add_task("p1", writes=["d1"], weight=1.0)
    b.add_task("p2", writes=["d2"], weight=1.0)
    b.add_task("u1", reads=["d1"], writes=["a"], weight=1.0)
    b.add_task("u2", reads=["d2"], writes=["a"], weight=1.0)
    g = b.build()
    pl = Placement(2, {"a": 0, "d1": 1, "d2": 1})
    asg = {"p1": 1, "p2": 1, "u1": 0, "u2": 0}
    sched = Schedule(
        graph=g,
        placement=pl,
        assignment=asg,
        orders=[["u1", "u2"], ["p1", "p2"]],
        meta={"heuristic": "crafted"},
    )
    sched.validate()
    return sched


def hand_plan(sched: Schedule, capacity: int, p0_points, p1_points=None) -> MapPlan:
    return MapPlan(
        capacity=capacity,
        points=[p0_points, p1_points or [MapPoint(proc=1, position=0)]],
        profile=analyze_memory(sched),
    )


@pytest.fixture(scope="module")
def sched():
    return crafted_schedule()


def error_codes(report):
    return {d.rule for d in report.errors}


# -- the clean negative -----------------------------------------------


def test_planner_output_is_clean(sched):
    report = analyze_plan(plan_maps(analyze_memory(sched), 5), label="clean")
    assert report.ok
    assert report.diagnostics == []
    assert "OK" in report.summary()


# -- SA1xx: memory -----------------------------------------------------


def test_sa101_non_executable(sched):
    report = analyze_schedule(sched, capacity=2)
    assert not report.ok
    assert error_codes(report) == {"SA101"}
    d = report.errors[0]
    assert d.proc is not None and d.task is not None


def test_sa102_plan_over_capacity(sched):
    # min_mem is 4 (P1's permanent d1+d2); a plan allocating both
    # volatiles up-front on P0 peaks at 5 and busts a capacity of 4.
    plan = hand_plan(sched, 4, [
        MapPoint(proc=0, position=0, allocs=["d1", "d2"],
                 notifications={1: ["d1", "d2"]}),
    ])
    report = analyze_plan(plan)
    assert error_codes(report) == {"SA102"}
    assert report.errors[0].obj == "d2"


def test_sa103_zero_headroom_advisory(sched):
    profile = analyze_memory(sched)
    assert profile.tot > profile.min_mem  # headroom was available
    report = analyze_plan(plan_maps(profile, profile.min_mem))
    assert report.ok  # informational only
    assert [d.rule for d in report.diagnostics] == ["SA103"]
    assert report.diagnostics[0].severity == Severity.INFO


# -- SA2xx: liveness sanitizer ----------------------------------------


def test_sa201_use_after_free(sched):
    plan = hand_plan(sched, 5, [
        MapPoint(proc=0, position=0, allocs=["d1", "d2"],
                 notifications={1: ["d1", "d2"]}),
        MapPoint(proc=0, position=1, frees=["d1", "d2"]),  # d2 still live
    ])
    report = analyze_plan(plan)
    assert error_codes(report) == {"SA201"}
    d = report.errors[0]
    assert d.task == "u2" and d.obj == "d2"


def test_sa202_double_free(sched):
    plan = hand_plan(sched, 5, [
        MapPoint(proc=0, position=0, allocs=["d1", "d2"],
                 notifications={1: ["d1", "d2"]}),
        MapPoint(proc=0, position=1, frees=["d1", "d1"]),
    ])
    report = analyze_plan(plan)
    assert error_codes(report) == {"SA202"}
    assert "already freed" in report.errors[0].message


def test_sa202_free_never_allocated(sched):
    plan = hand_plan(sched, 5, [
        MapPoint(proc=0, position=0, frees=["d1"], allocs=["d1", "d2"],
                 notifications={1: ["d1", "d2"]}),
    ])
    report = analyze_plan(plan)
    assert error_codes(report) == {"SA202"}
    assert "never allocated" in report.errors[0].message


def test_sa203_leaked_volatile(sched):
    plan = hand_plan(sched, 5, [
        MapPoint(proc=0, position=0, allocs=["d1", "d2"],
                 notifications={1: ["d1", "d2"]}),
        MapPoint(proc=0, position=1),  # d1 is dead here but never freed
    ])
    report = analyze_plan(plan)
    assert report.ok  # warning only
    assert [d.rule for d in report.diagnostics] == ["SA203"]
    assert report.diagnostics[0].obj == "d1"


def test_sa204_dead_allocation(sched):
    # P1 allocates 'a' (placed on P0, never accessed on P1) and even
    # notifies its owner, so only the dead allocation is wrong.
    plan = hand_plan(
        sched, 5,
        [MapPoint(proc=0, position=0, allocs=["d1", "d2"],
                  notifications={1: ["d1", "d2"]})],
        [MapPoint(proc=1, position=0, allocs=["a"],
                  notifications={0: ["a"]})],
    )
    report = analyze_plan(plan)
    assert report.ok  # warning only
    assert [d.rule for d in report.diagnostics] == ["SA204"]
    assert report.diagnostics[0].proc == 1
    assert report.diagnostics[0].obj == "a"


def test_sa205_use_without_alloc(sched):
    plan = hand_plan(sched, 5, [
        MapPoint(proc=0, position=0, allocs=["d1"],
                 notifications={1: ["d1"]}),
    ])
    report = analyze_plan(plan)
    assert error_codes(report) == {"SA205"}
    d = report.errors[0]
    assert d.task == "u2" and d.obj == "d2"


def test_sa206_double_alloc(sched):
    plan = hand_plan(sched, 5, [
        MapPoint(proc=0, position=0, allocs=["d1", "d2"],
                 notifications={1: ["d1", "d2"]}),
        MapPoint(proc=0, position=1, frees=["d1"], allocs=["d2"]),
    ])
    report = analyze_plan(plan)
    assert error_codes(report) == {"SA206"}
    assert report.errors[0].obj == "d2"


@pytest.mark.parametrize("positions, message", [
    ((0, 0), "P0 has two MAPs at position 0"),
    ((0, 2), "P0 has a MAP at position 2, outside its order of 2 tasks"),
], ids=["two_maps_at_one_position", "map_outside_the_order"])
def test_sa207_misplaced_map(sched, positions, message):
    # Placements the machine refuses: it keeps one MAP per position and
    # runs none past the order, while the replay runs them all.
    plan = hand_plan(sched, 5, [
        MapPoint(proc=0, position=pos, allocs=[o], notifications={1: [o]})
        for pos, o in zip(positions, ("d1", "d2"))
    ])
    [d] = [d for d in analyze_plan(plan).errors if d.rule == "SA207"]
    assert (d.message, d.proc, d.position) == (message, 0, positions[1])
    with pytest.raises(SimulationError) as err:
        Simulator(sched, spec=UNIT_MACHINE, capacity=5, plan=plan).run()
    assert str(err.value) == message


# -- SA3xx: protocol ---------------------------------------------------


def test_sa301_sa302_overwrite_demo_cycle():
    report = analyze_overwrite_demo()
    assert not report.ok
    assert error_codes(report) == {"SA301", "SA302"}
    assert report.cycles() == [(0, 1, 0)]
    [deadlock] = [d for d in report.errors if d.rule == "SA301"]
    assert "cycle: P0 -> P1 -> P0" in deadlock.witness
    assert "wait-for:" in deadlock.witness


def test_sa303_missing_notification(sched):
    plan = hand_plan(sched, 5, [
        MapPoint(proc=0, position=0, allocs=["d1", "d2"],
                 notifications={1: ["d2"]}),  # d1's address never sent
    ])
    report = analyze_plan(plan)
    # The suspended put deadlocks the pair, so SA301 rides along.
    assert error_codes(report) == {"SA303", "SA301"}
    [missing] = [d for d in report.errors if d.rule == "SA303"]
    assert missing.obj == "d1"
    assert report.cycles() == [(0, 1, 0)]


def test_sa304_order_cycle():
    b = GraphBuilder()
    b.add_object("x", 1)
    b.add_object("y", 1)
    b.add_task("t1", writes=["x"])
    b.add_task("t2", reads=["x"], writes=["y"])
    b.add_task("t3", reads=["y"], writes=["x"])
    g = b.build()
    pl = Placement(2, {"x": 0, "y": 1})
    sched = Schedule(
        graph=g,
        placement=pl,
        assignment={"t1": 0, "t2": 1, "t3": 0},
        orders=[["t3", "t1"], ["t2"]],  # t3 before its ancestor t1
        meta={"heuristic": "misordered"},
    )
    report = analyze_schedule(sched)
    assert "SA304" in error_codes(report)
    [oc] = [d for d in report.errors if d.rule == "SA304"]
    assert "t1" in oc.message and "t3" in oc.message
    # The cross-processor cycle surfaces as a static deadlock too.
    assert report.cycles() == [(0, 1, 0)]


# -- registry sanity ---------------------------------------------------


def test_every_rule_has_a_test_or_catalogue_entry():
    assert set(RULES) == {
        "SA101", "SA102", "SA103",
        "SA201", "SA202", "SA203", "SA204", "SA205", "SA206", "SA207",
        "SA301", "SA302", "SA303", "SA304",
        "SA401", "SA402", "SA403",
        "SA501", "SA502", "SA503", "SA504", "SA505",
    }

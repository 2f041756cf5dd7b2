"""The memory pass's one MAP-chain replay against the frozen two-pass
reference (:mod:`reference_passes`).

The live :func:`repro.analysis.memory.memory_pass` emits ``SA1xx`` and
``SA2xx`` from one per-processor replay (:func:`repro.core.maps
.plan_findings`, which the machine runs on every plan it did not make:
:func:`test_sa207_iff_the_machine_refuses` pins that the engines refuse
exactly the mutants with a memory-pass error); the reference ran the memory
pass and the two-tier liveness sanitizer separately.  Their full
diagnostic lists must be equal on every hand plan of
:mod:`test_rules` and on seeded mutations of planner output, apart from
``SA207`` (a misplaced MAP, which the reference did not report; dropped
here) and the two intended differences, which are normalised here and
pinned by the last two tests:

* ``SA203``/``SA204`` come in first-allocation order on every
  processor (the reference's walking tier sorted them by name);
* a MAP list out of position order is replayed by position for
  ``SA102`` too (the reference's memory pass walked the list).
"""

import inspect
import random
from contextlib import ExitStack, suppress
from dataclasses import replace
from itertools import groupby, product
from unittest import mock

import pytest

import reference_passes as ref
import test_rules
from repro.analysis import Severity, analyze_plan, engine
from repro.analysis.diagnostics import RULES
from repro.analysis.memory import memory_pass
from repro.core import cyclic_placement, owner_compute_assignment
from repro.core.liveness import analyze_memory
from repro.core.maps import REFUSED_RULES, MapPlan, MapPoint, plan_maps
from repro.core.placement import Placement
from repro.core.schedule import Schedule
from repro.errors import DeadlockError, SimulationError
from repro.graph import generators
from repro.graph.builder import GraphBuilder
from repro.machine.simulator import ENGINES, CompiledSchedule, Simulator
from repro.machine.spec import UNIT_MACHINE
from repro.rapid.inspector import order_with

# -- the reference, normalised ----------------------------------------


def rows(diags):
    """The comparable rows; ``SA207`` (misplaced MAP) is new since the
    reference."""
    return [(d.rule, d.message, d.proc, d.position, d.task, d.obj)
            for d in diags if d.rule != "SA207"]


def execution_order(pts, n):
    """MAP list indices in the order the MAPs run."""
    return sorted(range(len(pts)), key=lambda k: min(pts[k].position, n))


def first_allocation_rank(ctx, p):
    """Object -> rank of the moment it first becomes resident on P``p``:
    a MAP allocation (MAPs in execution order, before the task at their
    position) or, for a volatile that no MAP has allocated yet, its
    first access."""
    order = ctx.schedule.orders[p]
    pts = ctx.plan.points[p]
    span = ctx.profile.procs[p].span
    when = {}
    for r, k in enumerate(execution_order(pts, len(order))):
        for j, o in enumerate(pts[k].allocs):
            when.setdefault(o, (min(pts[k].position, len(order)), 0, r, j))
    for i, t in enumerate(order):
        for j, o in enumerate(ctx.schedule.graph.task(t).accesses):
            if o in span:
                when[o] = min(when.get(o, (i, 1, j, 0)), (i, 1, j, 0))
    ranked = sorted(when, key=when.__getitem__)
    return {o: r for r, o in enumerate(ranked)}


def expected(ctx):
    """The reference passes' list, with the two intended differences
    applied."""
    plan = ctx.plan
    mem_ctx = ctx
    where = None  # per processor: execution rank -> list index
    if plan is not None:
        where = [execution_order(pts, len(order))
                 for pts, order in zip(plan.points, ctx.schedule.orders)]
        if any(w != sorted(w) for w in where):
            sorted_plan = replace_points(
                plan, [[pts[k] for k in w]
                       for pts, w in zip(plan.points, where)])
            mem_ctx = replace(ctx, plan=sorted_plan)
    mem = []
    for d in ref.memory_pass(mem_ctx):
        if d.rule == "SA102" and mem_ctx is not ctx:
            k, rest = d.message[len("MAP "):].split(" ", 1)
            d = replace(d, message=f"MAP {where[d.proc][int(k)]} {rest}")
        mem.append(d)

    san = []
    for dead, run in groupby(ref.sanitizer_pass(ctx),
                             key=lambda d: d.rule in ("SA203", "SA204")):
        run = list(run)
        if dead:  # each processor's last block, possibly several in a row
            ranks = {p: first_allocation_rank(ctx, p)
                     for p in {d.proc for d in run}}
            run.sort(key=lambda d: (d.proc, ranks[d.proc][d.obj]))
        san.extend(run)
    return mem + san


def replace_points(plan, points):
    return MapPlan(capacity=plan.capacity, points=points,
                   profile=plan.profile)


def assert_same(ctx):
    assert rows(memory_pass(ctx)) == rows(expected(ctx))


# -- input 1: the hand plans of test_rules ----------------------------


def context_of(analyze, *args, **kwargs):
    """The :class:`AnalysisContext` ``analyze`` hands its passes."""
    seen = []
    capture = (lambda ctx: seen.append(ctx) or [],)
    with mock.patch.object(engine, "_PASSES", capture):
        analyze(*args, **kwargs)
    return seen[0]


#: the class of ``pytest.param`` cases
ParameterSet = type(pytest.param(None))


def cases(fn, sched):
    """The keyword arguments of every case of the ``test_rules`` test
    ``fn``: one per combination of its ``pytest.mark.parametrize``
    cases, with the module's ``sched`` fixture where the signature
    names it."""
    fixed = {"sched": sched} if "sched" in inspect.signature(fn).parameters else {}
    axes = []
    for mark in getattr(fn, "pytestmark", ()):
        if mark.name != "parametrize":
            continue
        names, values = mark.args[:2]
        if isinstance(names, str):
            names = [n.strip() for n in names.split(",")]
        axes.append([
            dict(zip(names, v.values if isinstance(v, ParameterSet)
                     else v if len(names) > 1 else (v,)))
            for v in values
        ])
    return [dict(fixed, **{k: v for case in combo for k, v in case.items()})
            for combo in product(*axes)]


@pytest.fixture(scope="module")
def hand_contexts():
    """Every analysis call of :mod:`test_rules`, recorded while its
    tests run, replayed into the context its passes read."""
    calls = []

    def recording(fn):
        def call(*args, **kwargs):
            calls.append((fn, args, kwargs))
            return fn(*args, **kwargs)
        return call

    names = ("analyze_plan", "analyze_schedule", "analyze_overwrite_demo")
    with ExitStack() as stack:
        for name in names:
            stack.enter_context(mock.patch.object(
                test_rules, name, recording(getattr(test_rules, name))))
        sched = test_rules.crafted_schedule()
        for name, fn in vars(test_rules).items():
            if name.startswith("test_") and callable(fn):
                for kwargs in cases(fn, sched):
                    # Only the calls are wanted here; test_rules judges
                    # its own assertions.
                    with suppress(AssertionError):
                        fn(**kwargs)
    return [context_of(fn, *args, **kwargs) for fn, args, kwargs in calls]


def test_hand_plans_match_the_reference(hand_contexts):
    seen = set()
    for ctx in hand_contexts:
        assert_same(ctx)
        seen.update(d.rule for d in memory_pass(ctx))
    assert seen == {"SA101", "SA102", "SA103", "SA201", "SA202", "SA203",
                    "SA204", "SA205", "SA206", "SA207"}


# -- input 2: seeded mutations of planner output ----------------------
#
# Each mutation replaces MAPs of one processor's list (``MapPoint`` is
# frozen), drawing from ``rng`` exactly as an in-place edit of the same
# MAPs would.


def drop_free(pts, rng):
    k = rng.choice([k for k, m in enumerate(pts) if m.frees])
    i = rng.randrange(len(pts[k].frees))
    pts[k] = replace(pts[k], frees=pts[k].frees[:i] + pts[k].frees[i + 1:])


def drop_alloc(pts, rng):
    k = rng.choice([k for k, m in enumerate(pts) if m.allocs])
    i = rng.randrange(len(pts[k].allocs))
    pts[k] = replace(pts[k], allocs=pts[k].allocs[:i] + pts[k].allocs[i + 1:])


def repeat_alloc(pts, rng):
    k = rng.choice([k for k, m in enumerate(pts) if m.allocs])
    o = rng.choice(pts[k].allocs)
    j = rng.randrange(k, len(pts))
    pts[j] = replace(pts[j], allocs=pts[j].allocs + (o,))


def move_map(pts, rng):
    k = rng.choice(range(len(pts)))
    pts[k] = replace(pts[k], position=max(
        0, pts[k].position + rng.choice((-2, -1, 1, 2))))


def swap_frees(pts, rng):
    a, b = rng.sample(range(len(pts)), 2)
    pts[a], pts[b] = (replace(pts[a], frees=pts[b].frees),
                      replace(pts[b], frees=pts[a].frees))


MUTATIONS = (drop_free, drop_alloc, repeat_alloc, move_map, swap_frees)


def base_plans(seed):
    for g in (generators.random_trace(30, 6, seed=seed),
              generators.layered_random(4, 5, seed=seed)):
        pl = cyclic_placement(g, 3)
        asg = owner_compute_assignment(g, pl)
        for h in ("rcp", "mpo", "dts"):
            sched = order_with(h, g, pl, asg)
            profile = analyze_memory(sched)
            for cap in (profile.min_mem,
                        (profile.min_mem + profile.tot) // 2,
                        max(profile.tot, 1)):
                yield plan_maps(profile, cap)


def mutants(plan, rng):
    """One copy of ``plan`` per mutation kind, each with the mutation
    applied to one processor that admits it."""
    for mutate in MUTATIONS:
        points = [list(pts) for pts in plan.points]
        procs = list(range(len(points)))
        rng.shuffle(procs)
        for p in procs:
            try:
                mutate(points[p], rng)
            except (IndexError, ValueError):
                continue  # nothing to mutate on this processor
            yield replace_points(plan, points)
            break


def mutated_contexts():
    for seed in range(40):
        rng = random.Random(seed)
        for plan in base_plans(seed):
            for mutant in mutants(plan, rng):
                yield engine.AnalysisContext(
                    capacity=mutant.capacity, profile=mutant.profile,
                    plan=mutant)


def test_mutated_plans_match_the_reference():
    checked = 0
    for ctx in mutated_contexts():
        assert_same(ctx)
        checked += 1
    assert checked >= 2000


def outcome(make_sim):
    """``("refused", message)`` when building the simulator raises,
    else the run's result or its error."""
    try:
        sim = make_sim()
    except SimulationError as err:
        return ("refused", str(err))
    try:
        return ("ran", replace(sim.run(), engine=""))
    except (SimulationError, DeadlockError) as err:
        return (type(err).__name__, str(err))


def test_refused_rules_are_the_memory_pass_errors():
    memory_rules = {c for c in RULES if c[:3] in ("SA1", "SA2")}
    assert REFUSED_RULES == {c for c in memory_rules
                             if RULES[c].severity == Severity.ERROR}


def test_sa207_iff_the_machine_refuses():
    """A mutant with any memory-pass error (``SA207`` and every other
    ``SA1xx``/``SA2xx`` error) is refused when either engine's
    simulator is built, with the first error's message.  Every other
    mutant runs, and both engines return equal results."""
    compiled = {}
    refused = ran = 0
    for ctx in mutated_contexts():
        errors = [d.message for d in memory_pass(ctx)
                  if d.severity == Severity.ERROR]
        plan = ctx.plan
        if id(plan.profile) not in compiled:
            compiled[id(plan.profile)] = (plan.profile, CompiledSchedule(
                plan.schedule, profile=plan.profile))
        cs = compiled[id(plan.profile)][1]
        got = {e: outcome(lambda e=e: Simulator(
                   compiled=cs, spec=UNIT_MACHINE, plan=plan, engine=e))
               for e in ENGINES}
        if errors:
            assert got == {e: ("refused", errors[0]) for e in ENGINES}
            refused += 1
        else:
            assert got["compiled"][0] == "ran"
            assert got["compiled"] == got["interpreted"]
            ran += 1
    assert refused > 0 and ran > 0


# -- the two intended differences -------------------------------------


def test_sa102_follows_map_positions():
    # The list names the position-1 MAP first.  By position, d1 (pos 0)
    # brings P0 to 3 and d2 (pos 1) to 5 > 4: the overflow is d2's, at
    # list index 0, the MAP the machine runs second.
    sched = test_rules.crafted_schedule()
    plan = test_rules.hand_plan(sched, 4, [
        MapPoint(proc=0, position=1, allocs=["d2"],
                 notifications={1: ["d2"]}),
        MapPoint(proc=0, position=0, allocs=["d1"],
                 notifications={1: ["d1"]}),
    ])
    [d] = [d for d in analyze_plan(plan).diagnostics if d.rule == "SA102"]
    assert (d.position, d.obj) == (1, "d2")
    assert d.message.startswith("MAP 0 brings usage to 5 ")
    # The overflowing MAP, at position 1, is the second MAP the machine
    # would run; the machine refuses the plan with this message.
    with pytest.raises(SimulationError, match="^MAP 0 brings usage to 5 "):
        plan.check()


def dead_allocation_plan(p0_allocs):
    """P0 reads ``v`` (produced on P1) and never touches ``z``/``b``."""
    b = GraphBuilder()
    for o in ("v", "z", "b", "out"):
        b.add_object(o, 1)
    b.add_task("w", writes=["v"])
    b.add_task("r", reads=["v"], writes=["out"])
    g = b.build()
    sched = Schedule(
        graph=g,
        placement=Placement(2, {"v": 1, "z": 1, "b": 1, "out": 0}),
        assignment={"w": 1, "r": 0},
        orders=[["r"], ["w"]],
    )
    return MapPlan(
        capacity=10,
        points=[[MapPoint(proc=0, position=0, allocs=p0_allocs,
                          notifications={1: ["v"]})],
                [MapPoint(proc=1, position=0)]],
        profile=analyze_memory(sched),
    )


def test_sa203_sa204_order_does_not_depend_on_the_tier():
    covered = analyze_plan(dead_allocation_plan(["v", "z", "b"]))
    gap = analyze_plan(dead_allocation_plan(["z", "b"]))  # v never allocated
    assert "SA205" in {d.rule for d in gap.errors}  # the walking tier ran
    for report in (covered, gap):
        dead = [d.obj for d in report.diagnostics if d.rule == "SA204"]
        assert dead == ["z", "b"]

"""The conformance harness: checked runs over schedules and batches.

:func:`run_check` executes one schedule with the online
:class:`~repro.conformance.invariants.InvariantChecker` attached (plus
optional fault injection and the differential oracle) and returns a
structured :class:`CheckReport`.  :func:`check_batch` sweeps the paper's
worked example and a batch of seeded random DAGs across the three
ordering heuristics — the engine behind ``repro check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core import cyclic_placement, owner_compute_assignment
from ..core.liveness import analyze_memory
from ..core.maps import MapPlan, MapPoint, check_capacity
from ..errors import DeadlockError, ReproError
from ..graph import generators
from ..machine.simulator import CompiledSchedule, Simulator, resolve_compiled
from ..machine.spec import UNIT_MACHINE, MachineSpec
from .faults import FaultSpec
from .invariants import InvariantChecker, Violation, deadlock_witness
from .oracle import OracleReport, differential_check

__all__ = [
    "CheckReport",
    "batch_cases",
    "check_batch",
    "overwrite_demo",
    "run_check",
]

@dataclass
class CheckReport:
    """Outcome of one checked execution."""

    label: str
    capacity: int
    violations: list[Violation] = field(default_factory=list)
    #: Witness report when the run deadlocked (``None`` otherwise).
    deadlock: Optional[str] = None
    #: Error text of a non-deadlock simulator abort (``None`` otherwise).
    error: Optional[str] = None
    oracle: Optional[OracleReport] = None
    parallel_time: Optional[float] = None
    #: The checker that observed the run (window buffer, raw state).
    checker: Optional[InvariantChecker] = None

    @property
    def ok(self) -> bool:
        return (
            not self.violations
            and self.deadlock is None
            and self.error is None
            and (self.oracle is None or self.oracle.ok)
        )

    def summary(self) -> str:
        if self.ok:
            oracle = "" if self.oracle is None else ", oracle ok"
            return (
                f"{self.label}: OK (capacity={self.capacity}, "
                f"PT={self.parallel_time:g}{oracle})"
            )
        parts = []
        if self.violations:
            parts.append(f"{len(self.violations)} violation(s)")
        if self.deadlock is not None:
            parts.append("deadlock")
        if self.error is not None:
            parts.append("aborted")
        if self.oracle is not None and not self.oracle.ok:
            parts.append("oracle mismatch")
        return f"{self.label}: FAIL ({', '.join(parts)}; capacity={self.capacity})"


def run_check(
    schedule=None,
    *,
    spec: MachineSpec = UNIT_MACHINE,
    capacity: Optional[int] = None,
    fraction: Optional[float] = None,
    faults: Optional[FaultSpec] = None,
    oracle: bool = True,
    label: str = "",
    compiled: Optional[CompiledSchedule] = None,
    plan=None,
) -> CheckReport:
    """One checked execution of ``schedule``.

    The run, its label and the oracle take the schedule from one
    compiled schedule (:func:`~repro.machine.simulator.resolve_compiled`).

    Capacity resolution order: explicit ``capacity``; ``plan``'s; the
    fault's ``capacity_fraction`` (the *tighten* knob); ``fraction``;
    else the schedule's TOT.  A deadlock is captured as a witness report
    rather than propagating; other simulator errors (a refused plan
    too) are captured as ``error``.
    """
    compiled = resolve_compiled(schedule, compiled, plan)
    if capacity is not None:
        # A bad capacity raises here; only the run's refusals are caught.
        capacity = check_capacity(capacity)
    elif plan is not None:
        capacity = plan.capacity
    else:
        # Lazy: conformance must stay importable before the analysis
        # package, whose pick_capacity the static analyzer shares.
        from ..analysis.engine import pick_capacity

        frac = fraction
        if faults is not None and faults.capacity_fraction is not None:
            frac = faults.capacity_fraction
        capacity = pick_capacity(compiled.profile, frac)
    checker = InvariantChecker(compiled)
    report = CheckReport(
        label=label or compiled.schedule.meta.get("heuristic", "schedule"),
        capacity=capacity,
        checker=checker,
    )
    try:
        res = Simulator(
            spec=spec,
            capacity=capacity,
            compiled=compiled,
            instrument=checker,
            faults=faults,
            plan=plan,
        ).run()
        report.parallel_time = res.parallel_time
    except DeadlockError as err:
        report.deadlock = deadlock_witness(err)
    except ReproError as err:
        report.error = f"{type(err).__name__}: {err}"
    report.violations = list(checker.violations)
    if oracle and report.deadlock is None and report.error is None:
        report.oracle = differential_check(
            spec=spec, capacity=capacity, compiled=compiled
        )
    return report


def overwrite_scenario():
    """A hand-built MAP plan (with its schedule and capacity) that loses
    an address package under the ``overwrite`` fault.

    The planner of :mod:`repro.core.maps` is self-throttling: a second
    package to one destination is only assembled after the tasks covered
    by the previous one executed, so its plans never overwrite a live
    slot even when told to.  The overwrite fault therefore ships with a
    *buggy-planner* scenario: a hand-built plan whose two early MAPs on
    ``P0`` both notify ``P1`` while ``P1`` is stuck in a long task — the
    second package overwrites the first, ``d1``'s address is lost,
    ``P1``'s suspended put never drains and the pair deadlocks in the
    cycle ``P0 -> P1 -> P0``.
    """
    from ..core.placement import Placement
    from ..core.schedule import Schedule
    from ..graph.builder import GraphBuilder

    b = GraphBuilder()
    b.add_object("a", 1)
    b.add_object("d1", 2)
    b.add_object("d2", 2)
    b.add_object("z", 1)
    b.add_task("p1", writes=["d1"], weight=0.5)
    b.add_task("p2", writes=["d2"], weight=8.0)
    b.add_task("long", writes=["z"], weight=50.0)
    b.add_task("l1", writes=["a"], weight=1.0)
    b.add_task("l2", reads=["a"], writes=["a"], weight=1.0)
    b.add_task("r12", reads=["d1", "d2"], writes=["a"], weight=1.0)
    g = b.build()
    pl = Placement(2, {"a": 0, "d1": 1, "d2": 1, "z": 1})
    asg = {"p1": 1, "p2": 1, "long": 1, "l1": 0, "l2": 0, "r12": 0}
    sched = Schedule(
        graph=g,
        placement=pl,
        assignment=asg,
        orders=[["l1", "l2", "r12"], ["p1", "p2", "long"]],
        meta={"heuristic": "overwrite-demo"},
    )
    sched.validate()
    return MapPlan(
        capacity=5,  # a + d1 + d2
        points=[
            [
                MapPoint(proc=0, position=0, allocs=["d1"],
                         notifications={1: ["d1"]}),
                MapPoint(proc=0, position=1, allocs=["d2"],
                         notifications={1: ["d2"]}),
            ],
            [MapPoint(proc=1, position=0)],
        ],
        profile=analyze_memory(sched),
    )


def overwrite_demo(seed: int = 0) -> CheckReport:
    """Checked run of :func:`overwrite_scenario` under the overwrite
    fault: expects a ``slot-overwrite`` violation plus a deadlock whose
    witness shows the ``P0 -> P1 -> P0`` cycle."""
    plan = overwrite_scenario()
    return run_check(
        capacity=plan.capacity,
        plan=plan,
        faults=FaultSpec(seed=seed, overwrite_slots=True),
        oracle=False,
        label="overwrite-demo",
    )


def batch_cases(
    seed: int,
    *,
    graphs: int = 10,
    procs: int = 3,
    tasks: int = 30,
    objects: int = 6,
    include_paper: bool = True,
) -> list[tuple[str, object, object, object]]:
    """The canonical ``(name, graph, placement, assignment)`` batch:
    the paper's worked example plus ``graphs`` seeded random DAGs.

    Single source of the case construction shared by ``repro check``
    (dynamic) and ``repro analyze`` (static), so both commands judge
    exactly the same schedules for a given seed.
    """
    cases: list[tuple[str, object, object, object]] = []
    if include_paper:
        from ..graph.paper_example import (
            paper_assignment,
            paper_example_graph,
            paper_placement,
        )

        g = paper_example_graph()
        pl = paper_placement()
        cases.append(("paper", g, pl, paper_assignment(g, pl)))
    for i in range(graphs):
        g = generators.random_trace(tasks, objects, seed=seed + i)
        pl = cyclic_placement(g, procs)
        cases.append((f"dag{seed + i}", g, pl, owner_compute_assignment(g, pl)))
    return cases


def check_batch(
    seed: int,
    *,
    graphs: int = 10,
    procs: int = 3,
    heuristics: Sequence[str] = ("rcp", "mpo", "dts"),
    faults: Optional[FaultSpec] = None,
    fraction: Optional[float] = 0.5,
    spec: MachineSpec = UNIT_MACHINE,
    tasks: int = 30,
    objects: int = 6,
    include_paper: bool = True,
) -> list[CheckReport]:
    """Checked runs over the paper example plus ``graphs`` seeded DAGs.

    Every graph is scheduled with each heuristic; seeds are
    ``seed .. seed + graphs - 1`` so a batch is fully reproducible.
    """
    from ..rapid.inspector import order_with

    reports: list[CheckReport] = []
    for name, g, pl, asg in batch_cases(
        seed, graphs=graphs, procs=procs, tasks=tasks, objects=objects,
        include_paper=include_paper,
    ):
        for h in heuristics:
            sched = order_with(h, g, pl, asg)
            reports.append(
                run_check(
                    sched,
                    spec=spec,
                    fraction=fraction,
                    faults=faults,
                    label=f"{name}/{h}",
                )
            )
    return reports

"""Discrete-event execution of schedules under active memory management.

This module is the Cray-T3D stand-in: a :class:`Simulator` executes a
static schedule on ``p`` simulated processors connected by an RMA
network, following the five-state protocol of section 3.3 (Figure 3(b)):

* **REC** — the processor blocks until every input object of its next
  task is locally available;
* **EXE** — task computation (non-blocking, costs the task weight);
* **SND** — after a task completes, messages for remote readers are
  issued; a data put whose *remote address is unknown* is enqueued on the
  suspended sending queue (worst-case length ``O(e)``, as the paper
  notes);
* **MAP** — a memory allocation point: frees dead volatile objects,
  allocates forward, assembles address packages; blocks while a
  destination has not consumed the previous package (one unbuffered
  address slot per ordered processor pair);
* **END** — all local tasks done; the processor drains its suspended
  queue before terminating.

Blocked states perform **RA** (read arrived address packages, freeing
the sender's slot) and **CQ** (dispatch suspended sends whose addresses
became known) — in the event-driven setting these run at task
boundaries and whenever an event wakes a blocked processor, which is
semantically the "invoke frequently" requirement of the paper.

The simulator *verifies* Theorem 1 as it runs: every data put checks
that the sender's local content version matches the version the edge
requires (no stale copies), arriving data must land in allocated
space, and an empty event queue with unfinished processors raises
:class:`~repro.errors.DeadlockError` (which Theorem 1 proves impossible
when ``capacity >= MIN_MEM``; the property tests exercise this).

Two execution modes:

* ``memory_managed=True`` — the full protocol driven by a
  :class:`~repro.core.maps.MapPlan` (positions from the static liveness
  analysis);
* ``memory_managed=False`` — the *baseline* of Tables 2/3: all volatile
  space pre-allocated, all addresses known a priori, no MAP costs.

Performance architecture
------------------------

The static preprocessing depends only on the schedule, not on the
memory capacity: it lives in :class:`CompiledSchedule`, built once per
schedule (the sweeps pass it as ``compiled=``).  Tables that do not
depend on the processor orders either are shared by every schedule of
one mapping (RCP, MPO and DTS at one P), memoised on its
:class:`~repro.core.index.MappingIndex`; the interpreted engine's
name-keyed tables are the reference's own
(:func:`repro.machine.reference.name_tables`).

Readiness of a task is tracked with countdown counters: every task
starts with the number of distinct remote inputs it waits for, each
arrival decrements the counters of the tasks waiting on that key, and a
task is ready exactly when its counter reaches zero — no per-wake-up
rescan of the requirement list.

All dynamic state of :meth:`Simulator.run` is local to the call: a
``Simulator`` (and the ``MapPlan``/``CompiledSchedule`` it holds) can be
run repeatedly — even concurrently from several threads — and a failed
run (:class:`~repro.errors.DeadlockError`, …) leaves no residue behind.

Event ordering and time arithmetic
----------------------------------

The interpreted engine's event queue is a heap of ``(time, seq, kind,
payload)`` tuples where ``seq`` is a strictly monotone push counter.
Same-timestamp events are therefore processed in *push order*
(deterministic FIFO tie-breaking); its ``post`` asserts both invariants
at push time — ``seq`` monotonicity, and causality (``time >= now``, the
timestamp of the event currently being processed), which together
guarantee the heap never pops an event "in the past" and that tie order
is exactly creation order.  All event times are plain Python ``float64``
values produced by *sequential* additions (``start + cost``); there is
no re-association, no compensated summation and no numpy accumulation
anywhere in the loop, so a given schedule produces bit-identical times
on every run.  The array-compiled engine (:mod:`repro.machine.compiled`)
reproduces the same float expressions in the same order and only
takes a task completion as its next event without a heap round-trip
when its finish time is *strictly* before the earliest queued event,
which preserves this (time, seq) order exactly —
the differential oracle compares engines with ``==``, not ``allclose``.

Engine selection
----------------

The array-compiled engine (``engine="compiled"``, the default) runs
every run: observed ones (``metrics=True``, ``trace=True``, an enabled
instrument), fault-injected ones and one with a caller-supplied
``plan`` included.  ``engine="interpreted"`` selects the interpreted
engine of :mod:`repro.machine.reference`, imported only then: the
differential oracle the compiled one is tested against, bit for bit,
and for observed runs hook call for hook call.  ``SimResult.engine``
records which engine ran.

Telemetry
---------

Both engines drive the :mod:`repro.obs` instrument layer with the same
typed protocol events (state transitions, puts issued/suspended/drained,
address-package traffic, MAP free/allocate decisions).  Instrumentation
follows the null-object pattern and is gated by a single ``observing``
boolean hoisted out of the loop: with ``trace=False``/``metrics=False``
and no instrument attached, the per-event cost is one local-bool test
and **no allocation** — ``benchmarks/bench_cost_budgets.py`` holds the
disabled path to the plain run's speed.  ``metrics=True`` attaches the
standard :class:`~repro.obs.instruments.MetricsSuite` and fills
:attr:`SimResult.metrics` / :attr:`SimResult.telemetry`; ``trace=True``
is now a :class:`~repro.obs.tracelog.TraceLog` instrument.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from time import perf_counter
from typing import Optional

from ..core.index import graph_index
from ..core.liveness import MemoryProfile, analyze_memory
from ..core.maps import MapPlan, check_capacity, plan_maps
from ..core.placement import validate_owner_compute
from ..core.schedule import Schedule
from ..errors import SimulationError
from ..obs.instrument import Instrument, MultiInstrument
from ..obs.instruments import MetricsSuite
from ..obs.metrics import build_metrics
from ..obs.tracelog import TraceEvent, TraceLog
from .spec import CRAY_T3D, MachineSpec

__all__ = [
    "CompiledSchedule",
    "ENGINES",
    "ENGINE_COUNTER_KEYS",
    "ProcessorStats",
    "ProcState",
    "SimResult",
    "Simulator",
    "TraceEvent",
    "simulate",
]


class ProcState(Enum):
    REC = "REC"
    EXE = "EXE"
    SND = "SND"
    MAP = "MAP"
    END = "END"
    DONE = "DONE"


#: Values of ``Simulator(engine=...)``: the reference oracle first.
ENGINES = ("interpreted", "compiled")

#: The keys of :attr:`CompiledSchedule.counters`.  ``*_s`` keys
#: are :func:`time.perf_counter` phase timers in seconds; the
#: ``exec_plan_s`` timer *includes* any first-call lowering /
#: MAP-planning it triggers (subtract ``lower_s`` / ``plan_s`` for the
#: exclusive cost); ``exec_plan_hits`` stays 0 (nothing is cached).
ENGINE_COUNTER_KEYS = (
    "plan_hits", "plan_misses", "plan_s",
    "lower_hits", "lower_misses", "lower_s",
    "exec_plan_hits", "exec_plan_misses", "exec_plan_s",
    "compiled_runs", "exec_s", "interpreted_runs",
)


@dataclass
class ProcessorStats:
    """Per-processor execution statistics."""

    busy_time: float = 0.0
    #: CPU time spent on protocol work: MAP actions, package assembly,
    #: RA reads, send overheads.
    overhead_time: float = 0.0
    num_maps: int = 0
    #: Tasks of the schedule order executed by this processor.
    num_tasks: int = 0
    data_msgs_sent: int = 0
    sync_msgs_sent: int = 0
    suspended_sends: int = 0
    packages_sent: int = 0
    packages_read: int = 0
    peak_memory: int = 0
    finish_time: float = 0.0

    @property
    def idle_time(self) -> float:
        """Time neither computing nor doing protocol work (blocked in
        REC / MAP / END waits)."""
        return max(self.finish_time - self.busy_time - self.overhead_time, 0.0)


@dataclass
class SimResult:
    """Outcome of one simulated execution."""

    parallel_time: float
    task_finish_time: float
    stats: list[ProcessorStats]
    capacity: int
    memory_managed: bool
    plan: Optional[MapPlan] = None
    trace: Optional[list[TraceEvent]] = None
    #: Versioned metrics document (``metrics=True``; see
    #: :func:`repro.obs.metrics.build_metrics`).
    metrics: Optional[dict] = None
    #: The :class:`~repro.obs.instruments.MetricsSuite` that observed the
    #: run (``metrics=True``); feeds the Chrome-trace / HTML exporters.
    telemetry: Optional[MetricsSuite] = None
    #: ``heuristic:pP:Nt`` label of the executed schedule.
    schedule_label: str = ""
    #: Which engine produced this result: ``"interpreted"`` or
    #: ``"compiled"`` (always the requested one).
    engine: str = "interpreted"

    def render_trace(self, limit: Optional[int] = 200) -> str:
        """Human-readable event log (requires ``trace=True``).

        ``limit`` caps the number of events shown; ``limit=None`` means
        *all* events.  The first line is a header identifying the run.
        """
        if self.trace is None:
            return "(tracing was not enabled)"
        shown = self.trace if limit is None else self.trace[:limit]
        lines = [
            f"# trace: schedule={self.schedule_label or '?'} "
            f"procs={len(self.stats)} capacity={self.capacity} "
            f"memory_managed={self.memory_managed} "
            f"events={len(self.trace)}"
        ]
        lines += [
            f"{e.time:12.6f}  P{e.proc}  {e.kind:<7} {e.detail}"
            for e in shown
        ]
        if len(self.trace) > len(shown):
            lines.append(f"... ({len(self.trace) - len(shown)} more events)")
        return "\n".join(lines)

    @property
    def avg_maps(self) -> float:
        """Average MAPs over processors that own tasks — the same
        non-empty-order rule as :attr:`repro.core.maps.MapPlan.avg_maps`,
        so the ``#MAPs`` columns of Tables 2/3/5 agree between the
        static plan and the executed result."""
        counts = [s.num_maps for s in self.stats if s.num_tasks]
        return sum(counts) / len(counts) if counts else 0.0

    @property
    def peak_memory(self) -> int:
        return max((s.peak_memory for s in self.stats), default=0)

    @property
    def total_data_msgs(self) -> int:
        return sum(s.data_msgs_sent for s in self.stats)

    @property
    def utilization(self) -> float:
        if self.parallel_time <= 0:
            return 1.0
        p = len(self.stats)
        return sum(s.busy_time for s in self.stats) / (p * self.parallel_time)


class CompiledSchedule:
    """Capacity-independent static tables for simulating one schedule.

    Compiling is the expensive part of constructing a
    :class:`Simulator`: the liveness analysis (which validates the
    schedule; a given ``profile`` must be this schedule's, else
    :class:`~repro.errors.SimulationError`) and the engine tables.
    None of it depends on the memory capacity or execution mode, so
    one compiled schedule serves every run of that schedule — pass it
    via ``Simulator(compiled=...)``.  It is the one source of a run's
    schedule and profile: a MAP plan runs on it only if it was made
    from its profile.

    Both memoised caches are guarded against silent staleness.
    :meth:`plan_for` memoises MAP plans by capacity alone, which is
    sound because the orders, the graph shape and the processor count
    are frozen at compile time: a structural fingerprint taken then is
    re-checked by :meth:`check_fresh` on every plan or compiled-engine
    lookup, which raises :class:`~repro.errors.SimulationError` if the
    schedule or graph was mutated since.  The compiled engine runs a
    plan's own id tables, so nothing else is cached per capacity.
    """

    def __init__(
        self,
        schedule: Schedule,
        profile: Optional[MemoryProfile] = None,
    ):
        self.schedule = schedule
        self.graph = schedule.graph
        self.num_procs = schedule.num_procs
        gi = graph_index(self.graph)
        if profile is None:
            profile = analyze_memory(schedule)
        elif profile.schedule is not schedule:
            raise SimulationError("profile does not match the schedule")
        self.profile = profile
        # The mapping's index, looked up once for lowering and the name
        # tables (``check_fresh`` guards mutation).
        mi = self._mi = gi.mapping(schedule.placement, schedule.assignment)
        # Order-independent, so checked once per mapping (a failed check
        # raises and is not memoised).
        mi.memo("owner-compute", lambda: validate_owner_compute(
            self.graph, schedule.placement, schedule.assignment))
        self._plans: dict[int, MapPlan] = {}
        #: lowered list-table IR (shared by every run of the schedule).
        self._lowered: Optional[object] = None
        #: memo of :func:`repro.machine.reference.name_tables`.
        self._name_tables: Optional[object] = None
        #: engine introspection counters: cache hits/misses and phase
        #: timers for the MAP-plan / lowering caches, MAP-table lookups
        #: and run counts per engine.  Updated
        #: only at cache-lookup boundaries and run entry — never inside
        #: the execution hot loops.
        self.counters: dict = {k: 0.0 if k.endswith("_s") else 0
                               for k in ENGINE_COUNTER_KEYS}
        # Every volatile object a processor reads must have a producer
        # somewhere, otherwise its owner would never send data (and the
        # address-package handshake could block a MAP forever).  Graphs
        # built with ``materialize_inputs=True`` satisfy this by
        # construction.
        g = self.graph
        produced = gi.memo("produced", lambda: frozenset(
            o for t in g.tasks() for o in t.writes))
        for q in range(self.num_procs):
            for m in self.profile.procs[q].span:
                if m not in produced:
                    raise SimulationError(
                        f"volatile object {m!r} read on P{q} has no producer; "
                        "build the graph with materialize_inputs=True"
                    )
        # Permanent footprint per processor (allocated for the whole run).
        self.perm_bytes = [pp.perm_bytes for pp in self.profile.procs]
        self._fingerprint = self._schedule_fingerprint()

    # -- cache-staleness guard ------------------------------------------

    def _schedule_fingerprint(self) -> tuple:
        """Structural identity of the schedule/graph the caches assume.

        Cheap (O(P)) by design so :meth:`check_fresh` can run on every
        memoised lookup: graph shape (task/object/edge counts), the
        processor count and the per-processor order lengths plus their
        final tasks.  Any mutation of ``schedule.orders`` or the graph
        that could invalidate a cached plan changes at least one of
        these."""
        g, sched = self.graph, self.schedule
        return (
            g.num_tasks,
            g.num_objects,
            g.num_edges,
            sched.num_procs,
            tuple(len(o) for o in sched.orders),
            tuple(o[-1] if o else "" for o in sched.orders),
        )

    def check_fresh(self) -> None:
        """Raise :class:`~repro.errors.SimulationError` if the schedule
        or graph was mutated after compilation (the memoised plans and
        execution plans would silently describe a stale schedule)."""
        if self._schedule_fingerprint() != self._fingerprint:
            raise SimulationError(
                "CompiledSchedule is stale: the schedule or graph changed "
                "after compilation; build a new CompiledSchedule instead of "
                "mutating the schedule behind a cached one"
            )

    # -- MAP plans ------------------------------------------------------

    def plan_for(self, capacity: int) -> MapPlan:
        """MAP plan of this schedule under ``capacity``, memoised.

        Raises :class:`~repro.errors.NonExecutableScheduleError` below
        ``MIN_MEM`` (failures are not cached).  The capacity-only key is
        guarded by :meth:`check_fresh`; see the class docstring."""
        self.check_fresh()
        plan = self._plans.get(capacity)
        if plan is None:
            self.counters["plan_misses"] += 1
            t0 = perf_counter()
            plan = plan_maps(self.profile, capacity)
            self.counters["plan_s"] += perf_counter() - t0
            self._plans[capacity] = plan
        else:
            self.counters["plan_hits"] += 1
        return plan


def resolve_compiled(
    schedule: Optional[Schedule] = None,
    compiled: Optional[CompiledSchedule] = None,
    plan: Optional[MapPlan] = None,
) -> CompiledSchedule:
    """The compiled schedule a run takes everything from: ``compiled``,
    else ``plan``'s schedule and profile, else ``schedule``.  A
    ``schedule`` or ``plan`` not of it raises :class:`SimulationError`."""
    if compiled is None:
        if plan is not None:
            compiled = CompiledSchedule(plan.schedule, profile=plan.profile)
        elif schedule is None:
            raise SimulationError("Simulator needs a schedule or a compiled schedule")
        else:
            compiled = CompiledSchedule(schedule)
    if schedule is not None and schedule is not compiled.schedule:
        raise SimulationError("schedule does not match compiled.schedule")
    if plan is not None and plan.profile is not compiled.profile:
        raise SimulationError("plan does not match compiled.profile")
    return compiled


class Simulator:
    """Execute one schedule on the simulated machine.

    Parameters
    ----------
    schedule:
        A validated static schedule (owner-compute is asserted).  May be
        omitted when ``compiled`` is given.
    spec:
        Machine cost parameters (default: :data:`~repro.machine.spec.CRAY_T3D`).
    capacity:
        Per-processor memory in bytes/units, a finite integer >= 0
        (else :class:`~repro.errors.CapacityError`); defaults to
        ``plan.capacity`` when a plan is given, else to
        ``spec.memory_capacity``.  With ``memory_managed=True`` a
        :class:`~repro.errors.NonExecutableScheduleError` propagates from
        the MAP planner when the capacity is below ``MIN_MEM``; the
        baseline mode requires ``capacity >= TOT``.
    memory_managed:
        Toggle the active memory management protocol (see module doc).
    plan:
        Optional precomputed MAP plan, made from the run's own profile
        (``plan.profile is compiled.profile``), which sets the run's
        capacity; another ``capacity`` or ``memory_managed=False``
        raises :class:`~repro.errors.SimulationError`, and so does a
        plan with a memory-pass error (:meth:`MapPlan.check
        <repro.core.maps.MapPlan.check>`), on both engines.
    compiled:
        Optional :class:`CompiledSchedule`, the one source of the run's
        schedule and profile (see :func:`resolve_compiled`); skips
        validation, liveness analysis and static preprocessing
        entirely.  One compiled schedule can back any number of
        simulators.

    :meth:`run` keeps all mutable execution state local to the call, so
    a simulator can be run repeatedly (and concurrently) and an aborted
    run never corrupts the shared ``plan``/``compiled`` objects.
    """

    def __init__(
        self,
        schedule: Optional[Schedule] = None,
        spec: MachineSpec = CRAY_T3D,
        capacity: Optional[int] = None,
        memory_managed: bool = True,
        plan: Optional[MapPlan] = None,
        preknown_addresses: bool = False,
        trace: bool = False,
        compiled: Optional[CompiledSchedule] = None,
        metrics: bool = False,
        instrument: Optional[Instrument] = None,
        faults: Optional["FaultSpec"] = None,  # noqa: F821
        engine: str = "compiled",
    ):
        """See class docstring; ``preknown_addresses=True`` models a
        steady-state iteration of an iterative application (RAPID's
        target workloads, Figure 1: "execute tasks iteratively"): the
        volatile addresses notified during the first iteration remain
        valid, so MAPs still pay their allocate/free costs but no
        address packages travel and no send ever suspends.

        ``metrics=True`` attaches a fresh
        :class:`~repro.obs.instruments.MetricsSuite` per run and fills
        ``SimResult.metrics``/``SimResult.telemetry``; ``instrument``
        attaches a custom :class:`~repro.obs.instrument.Instrument`
        (reused across runs — its ``on_run_begin`` must reset state).
        Both compose with ``trace=True``.

        ``faults`` accepts a
        :class:`~repro.conformance.faults.FaultSpec`; each run draws a
        fresh run-local injector, so faulted executions stay
        deterministic and repeatable.  An inactive spec costs one
        ``is None`` test per injection site; ``slow_procs`` outside
        ``[0, p)`` raise :class:`~repro.errors.SimulationError`.

        ``engine`` selects the execution engine, ``"compiled"`` (default)
        or ``"interpreted"``; see "Engine selection" in the module
        docstring."""
        if engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {engine!r}; expected 'interpreted' or "
                "'compiled'"
            )
        self.engine = engine
        self.compiled = compiled = resolve_compiled(schedule, compiled, plan)
        self.schedule = compiled.schedule
        self.spec = spec
        self.g = compiled.graph
        self.p = compiled.num_procs
        self.memory_managed = memory_managed
        self.preknown_addresses = preknown_addresses
        self.trace_enabled = trace
        self.metrics_enabled = metrics
        self.instrument = instrument
        self.faults = faults
        slow = getattr(faults, "slow_procs", None)
        if slow is not None and any(not 0 <= q < self.p for q in slow):
            raise SimulationError(
                f"FaultSpec.slow_procs = {slow!r}: every processor must "
                f"be in [0, {self.p})"
            )
        self.schedule_label = (
            f"{self.schedule.meta.get('heuristic', '?')}"
            f":p{self.p}:{self.g.num_tasks}t"
        )
        self.profile = compiled.profile
        if plan is not None:
            if not memory_managed:
                raise SimulationError("a MAP plan needs memory_managed=True")
            if capacity is not None and check_capacity(capacity) != plan.capacity:
                raise SimulationError(
                    f"capacity {capacity} does not match plan.capacity "
                    f"{plan.capacity}")
            plan.check()
            capacity = plan.capacity
        elif capacity is None:
            capacity = (
                spec.memory_capacity if memory_managed else max(self.profile.tot, 1)
            )
        self.capacity = check_capacity(capacity)
        if memory_managed:
            self.plan = plan if plan is not None else compiled.plan_for(self.capacity)
        else:
            if self.capacity < self.profile.tot:
                raise SimulationError(
                    "baseline mode needs capacity >= TOT "
                    f"({self.capacity} < {self.profile.tot})"
                )
            self.plan = None

    # ------------------------------------------------------------------
    # dynamic execution
    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        counters = self.compiled.counters
        if self.engine == "interpreted":
            from .reference import run_interpreted

            counters["interpreted_runs"] += 1
            return run_interpreted(self)
        from .compiled import run_compiled

        counters["compiled_runs"] += 1
        t0 = perf_counter()
        res = run_compiled(self)
        counters["exec_s"] += perf_counter() - t0
        return res

    def _observers(self) -> tuple[
        Optional[Instrument], Optional[MetricsSuite], Optional[TraceLog]
    ]:
        """The run's observer, or ``None`` when nothing observes: a
        fresh :class:`MetricsSuite` (``metrics=True``), a fresh
        :class:`TraceLog` (``trace=True``) and the enabled caller
        instrument, composed in that order.  Both engines drive it with
        the same hook calls."""
        suite = MetricsSuite() if self.metrics_enabled else None
        tlog = TraceLog() if self.trace_enabled else None
        insts = [i for i in (suite, tlog, self.instrument)
                 if i is not None and i.enabled]
        if not insts:
            return None, suite, tlog
        obs = insts[0] if len(insts) == 1 else MultiInstrument(insts)
        return obs, suite, tlog

    def _result(self, pt: float, task_finish: float,
                stats: list[ProcessorStats], engine: str,
                suite: Optional[MetricsSuite],
                tlog: Optional[TraceLog]) -> SimResult:
        """The :class:`SimResult` of a finished run, with the telemetry
        of :meth:`_observers`' suite and trace log."""
        result = SimResult(
            parallel_time=pt,
            task_finish_time=task_finish,
            stats=stats,
            capacity=self.capacity,
            memory_managed=self.memory_managed,
            plan=self.plan,
            trace=tlog.events if tlog is not None else None,
            telemetry=suite,
            schedule_label=self.schedule_label,
            engine=engine,
        )
        if suite is not None:
            result.metrics = build_metrics(result, suite)
        return result


def simulate(schedule: Schedule, **kw) -> SimResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(schedule, **kw).run()

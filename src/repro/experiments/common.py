"""Shared infrastructure for regenerating the paper's tables and figures.

Conventions (section 5.1 of the paper):

* ``TOT`` — total memory needed by a schedule without any recycling; the
  memory constraints are percentages of TOT.  Cross-heuristic
  comparisons (Tables 4-7) use the *RCP schedule's* TOT as the common
  reference so that a "75%" cell is the same absolute capacity for both
  algorithms (that is what makes the paper's ``*`` entries — one
  algorithm executable, the other not — well defined).
* ``PT increase`` — relative parallel-time increase versus the baseline:
  the RCP schedule with 100% memory and **no** memory-management
  overhead.
* ``#MAPs`` — average number of memory allocation points per processor.
* Non-executable configurations (``MIN_MEM`` above the capacity) are
  reported as ``inf``, printed ``inf`` like the paper's tables.

The :class:`ExperimentContext` caches compiled schedules (each holding
its liveness profile and schedule) and simulation results per
(workload, processors) group so a sweep over memory fractions re-uses
its scheduling work, and frees a group's tables when the sweep is done
with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from ..core.index import graph_index
from ..core.liveness import MemoryProfile
from ..core.placement import Placement
from ..core.schedule import Schedule
from ..machine.simulator import CompiledSchedule, SimResult, Simulator
from ..machine.spec import CRAY_T3D, MachineSpec
from ..obs.instrument import MultiInstrument
from ..obs.instruments import MemoryTimeline, QueueDepth, StateResidency
from ..obs.metrics import summary_columns
from ..rapid.inspector import order_with
from ..sparse.cholesky import build_cholesky
from ..sparse.lu import build_lu
from ..sparse.matrices import bcsstk15_like, bcsstk24_like, goodwin_like
from ..sparse.treegraph import build_etree_problem

#: Memory fractions of the paper's overhead tables.
FRACTIONS = (1.0, 0.75, 0.5, 0.4)
#: Extended fractions of the heuristic-comparison tables.
FRACTIONS_CMP = (0.75, 0.5, 0.4, 0.25)
#: Processor counts of the paper's tables.
PROCS = (2, 4, 8, 16, 32)

#: Workload keys built into :meth:`ExperimentContext.problem`.
BUILTIN_WORKLOADS = ("chol15", "chol24", "lu-goodwin", "etree15")
#: TOT bases of :meth:`ExperimentContext.run_cell` (``reference=``).
REFERENCES = ("self", "rcp")

INF = float("inf")


def require_known(kind: str, values, choices, error=ValueError) -> None:
    """Raise ``error`` naming every value not in ``choices`` together
    with the choices (the listing the CLI prints before exiting 2)."""
    bad = [v for v in values if v not in choices]
    if bad:
        raise error(f"unknown {kind}(s) {bad}; choose from {list(choices)}")


def require_reference(reference: str, heuristics) -> None:
    """Raise ``ValueError`` for a TOT base not in :data:`REFERENCES`,
    and for ``"self"`` with ``dts-merge``: that heuristic orders under
    the cell's capacity, so it has no capacity-free schedule of its own
    to take the TOT from."""
    require_known("reference", (reference,), REFERENCES)
    if reference == "self" and "dts-merge" in heuristics:
        raise ValueError(
            "dts-merge needs reference='rcp': its schedule depends on the "
            "capacity, so it has no TOT of its own")


def require_grid(procs, fractions) -> None:
    """Raise ``ValueError`` naming every processor count that is not an
    integer >= 1 and every memory fraction that is not finite and >= 0
    (the message the CLI prints before exiting 2)."""
    bad = [p for p in procs if not (p == int(p) and p >= 1)]
    if bad:
        raise ValueError(f"processor counts must be integers >= 1, got {bad}")
    bad = [f for f in fractions if not (math.isfinite(f) and f >= 0)]
    if bad:
        raise ValueError(f"memory fractions must be finite and >= 0, got {bad}")


@dataclass(frozen=True)
class SweepRecord:
    """One (configuration, capacity) cell: what
    :meth:`ExperimentContext.run_cell` returns and
    :func:`~repro.experiments.sweep.to_csv` writes, one CSV row.

    Non-executable cells (``MIN_MEM`` above the capacity) get ``inf``
    timing fields.  The opt-in fields stay ``None`` unless their family
    of :data:`OPTIONAL_COLUMNS` was asked for.
    """

    workload: str
    procs: int
    heuristic: str
    fraction: float
    executable: bool
    capacity: int
    min_mem: int
    tot: int
    parallel_time: float
    pt_increase: float
    avg_maps: float
    #: the families of :data:`OPTIONAL_COLUMNS`, in table order
    map_overhead_frac: Optional[float] = None
    max_hwm: Optional[float] = None
    max_suspq: Optional[float] = None
    violations: Optional[float] = None
    analysis_errors: Optional[float] = None
    pt_bound: Optional[float] = None
    mem_bound: Optional[float] = None
    pt_bound_gap: Optional[float] = None
    mem_bound_gap: Optional[float] = None
    #: failure columns, populated only on cells of a group that a
    #: supervised sweep recorded as failed (``"timeout"``/``"crashed"``/
    #: ``"error"``; see :mod:`repro.experiments.runtime`)
    status: Optional[str] = None
    error: Optional[str] = None
    attempts: Optional[int] = None
    elapsed: Optional[float] = None

    @property
    def pt_increase_pct(self) -> float:
        return self.pt_increase * 100.0


class _Cell(NamedTuple):
    """What a family's ``collect`` reads about one cell: its compiled
    schedule (which holds the schedule and profile) and ``run``,
    ``None`` on a non-executable cell."""

    ctx: ExperimentContext
    key: str
    p: int
    heuristic: str
    capacity: int
    compiled: CompiledSchedule
    run: Optional[SimResult] = None


class ColumnFamily(NamedTuple):
    """One opt-in column family of :data:`OPTIONAL_COLUMNS`.

    ``instruments(cs)`` builds the instruments the family attaches to
    the cell's run (``None``: static, nothing attached).
    ``collect(cell, probes)`` returns the values of ``fields`` in order;
    ``probes`` are the family's instruments after the run, or ``None``
    when nothing ran for the family (a static family, or a
    non-executable cell).
    """

    fields: tuple[str, ...]
    instruments: Optional[Callable[[CompiledSchedule], tuple]]
    collect: Callable[[_Cell, Optional[tuple]], tuple]

    def fill(self, cell: _Cell, probes: Optional[tuple] = None) -> dict:
        """The family's fields of ``cell``, by name."""
        return dict(zip(self.fields, self.collect(cell, probes)))


def _metric_probes(cs: CompiledSchedule) -> tuple:
    return StateResidency(), MemoryTimeline(), QueueDepth()


def _telemetry(cell: _Cell, probes: Optional[tuple]) -> tuple:
    if probes is None:
        return INF, INF, INF
    summary = summary_columns(*probes)
    return (summary["map_overhead_frac"], float(summary["max_hwm"]),
            float(summary["max_suspq"]))


def _checker(cs: CompiledSchedule) -> tuple:
    from ..conformance import InvariantChecker

    return (InvariantChecker(cs),)


def _violation_count(cell: _Cell, probes: Optional[tuple]) -> tuple:
    return (float(len(probes[0].violations)) if probes is not None else INF,)


def _analyzer_errors(cell: _Cell, probes: Optional[tuple]) -> tuple:
    # O(plan), no simulation: an executable cell analyzes the compiled
    # schedule's memoised plan (what the simulator executes); a
    # non-executable one has no plan and is reported via SA101.
    from ..analysis import analyze_plan, analyze_schedule

    cs = cell.compiled
    if cs.profile.executable_under(cell.capacity):
        report = analyze_plan(cs.plan_for(cell.capacity))
    else:
        report = analyze_schedule(
            cs.schedule, capacity=cell.capacity, profile=cs.profile)
    return (float(len(report.errors)),)


def _certified_bounds(cell: _Cell, probes: Optional[tuple]) -> tuple:
    # Static: only the PT gap needs a run.
    bset = cell.ctx.bounds_for(cell.key, cell.p, cell.heuristic, cell.capacity)
    pt, mem = bset.pt.value, bset.min_mem.value
    return (
        pt, mem,
        cell.run.parallel_time / pt - 1.0
        if cell.run is not None and pt > 0 else INF,
        cell.compiled.profile.min_mem / mem - 1.0 if mem > 0 else INF,
    )


#: The opt-in column families, keyed by the ``full_sweep`` flag (and
#: ``run_cell`` ``columns`` name) that fills them, in CSV order.  A
#: family's columns are written only when some record carries them, so
#: a plain sweep's CSV never changes; every place that handles the
#: optional columns iterates this table.
OPTIONAL_COLUMNS = {
    #: per-cell telemetry of an instrumented run (:mod:`repro.obs`)
    "metrics": ColumnFamily(
        ("map_overhead_frac", "max_hwm", "max_suspq"), _metric_probes,
        _telemetry),
    #: invariant violations seen by the conformance checker (0
    #: everywhere when Theorem 1 holds)
    "check": ColumnFamily(("violations",), _checker, _violation_count),
    #: error-severity findings of the static analyzer, no extra
    #: simulation; a non-executable cell counts its SA101
    "analyze": ColumnFamily(("analysis_errors",), None, _analyzer_errors),
    #: certified static lower bounds (:mod:`repro.analysis.bounds`) and
    #: the cell's relative slack over them, ``value/bound - 1``
    "bounds": ColumnFamily(
        ("pt_bound", "mem_bound", "pt_bound_gap", "mem_bound_gap"), None,
        _certified_bounds),
}


@dataclass
class _Group:
    """Every table :class:`ExperimentContext` caches for one (workload,
    procs) group; the dict keys omit the group's own ``(key, p)``."""

    mapping: Optional[tuple[Placement, dict[str, int]]] = None
    baseline_pt: Optional[float] = None
    #: ``(heuristic, ordering capacity)`` -> compiled schedule (which
    #: holds the schedule and its profile)
    compiled: dict[tuple, CompiledSchedule] = field(default_factory=dict)
    #: heuristic -> certified bounds
    bounds: dict[str, object] = field(default_factory=dict)
    #: ``(heuristic, capacity, observed families, engine)`` -> (run, the
    #: observed families' fields)
    sims: dict[tuple, tuple[SimResult, dict]] = field(default_factory=dict)


def _add_counters(totals: dict, counters: dict) -> None:
    for k, v in counters.items():
        totals[k] = totals.get(k, 0) + v


class ExperimentContext:
    """Caches problems, and per (workload, procs) group the tables its
    cells share.

    Problems are built once and kept for the context's lifetime.  A
    group's tables — its mapping, compiled schedules (with their
    schedules, liveness profiles, MAP plans and lowering), RCP
    baseline, bounds and simulation results — are kept until
    :meth:`release` drops them.
    :func:`~repro.experiments.sweep.full_sweep` releases each group as
    it finishes, since no group reads another's tables; other callers
    (the table builders, the CLI's ``analyze``) never release and keep
    everything for the context's lifetime.
    """

    def __init__(self, spec: MachineSpec = CRAY_T3D):
        self.spec = spec
        self._problems: dict[str, object] = {}
        self._registered: dict[str, object] = {}
        self._groups: dict[tuple[str, int], _Group] = {}
        #: engine counters of the compiled schedules of released groups
        self._released_counters: dict = {}

    # -- workloads -------------------------------------------------------

    def problem(self, key: str):
        """Named workload; built lazily.  Keys: ``chol15``, ``chol24``,
        ``lu-goodwin``, ``etree15`` and any registered via
        :meth:`register`."""
        if key not in self._problems:
            flop_time = 1.0 / self.spec.flop_rate
            if key == "chol15":
                self._problems[key] = build_cholesky(
                    bcsstk15_like(scale=0.15), block_size=12, flop_time=flop_time,
                    with_kernels=False,
                )
            elif key == "chol24":
                self._problems[key] = build_cholesky(
                    bcsstk24_like(scale=0.15), block_size=12, flop_time=flop_time,
                    with_kernels=False,
                )
            elif key == "lu-goodwin":
                self._problems[key] = build_lu(
                    goodwin_like(scale=0.07), block_size=12, flop_time=flop_time,
                    with_kernels=False,
                )
            elif key == "etree15":
                self._problems[key] = build_etree_problem(
                    bcsstk15_like(scale=0.15), flop_time=flop_time,
                )
            else:
                raise KeyError(
                    f"unknown workload {key!r}; choose one of "
                    f"{self.known_workloads()} or register() a custom problem"
                )
        return self._problems[key]

    def known_workloads(self) -> list[str]:
        """Every workload key :meth:`problem` accepts, sorted."""
        return sorted(set(BUILTIN_WORKLOADS) | set(self._registered))

    def register(self, key: str, problem) -> None:
        """Register a custom problem (must expose ``graph``,
        ``placement(p)`` and ``assignment(placement)``).  Registered
        problems must be picklable to take part in a parallel sweep
        (:func:`repro.experiments.sweep.full_sweep` with ``jobs > 1``)."""
        self._problems[key] = problem
        self._registered[key] = problem

    def shipped_problems(self, workloads) -> dict[str, object]:
        """The registered problems a parallel sweep over ``workloads``
        must ship to its workers.

        Only problems actually named in the grid are included — workers
        never pay to unpickle (or choke on) registrations the sweep does
        not use — and each shipped problem is pickled *here*, so an
        unpicklable one fails fast with a clear error instead of a deep
        worker-pool traceback mid-sweep.
        """
        import pickle

        wanted = set(workloads)
        out: dict[str, object] = {}
        for key, problem in self._registered.items():
            if key not in wanted:
                continue
            try:
                pickle.dumps(problem)
            except Exception as err:
                raise ValueError(
                    f"registered problem {key!r} is not picklable and cannot "
                    f"be shipped to sweep workers: {err!r}. Make the problem "
                    "picklable (module-level classes, no lambdas/closures) "
                    "or run the sweep with jobs=1."
                ) from err
            out[key] = problem
        return out

    # -- groups --------------------------------------------------------------

    def _group(self, key: str, p: int) -> _Group:
        try:
            return self._groups[key, p]
        except KeyError:
            group = self._groups[key, p] = _Group()
            return group

    def release(self, key: str, p: int) -> None:
        """Drop every cached table of the (``key``, ``p``) group and
        the graph index's :class:`~repro.core.index.MappingIndex` of its
        mapping; the problem and graph-level memos stay.  The group's
        engine counters are folded into :meth:`engine_counters` first.
        A later call for the group rebuilds its tables; releasing a
        group with nothing cached is a no-op."""
        group = self._groups.pop((key, p), None)
        if group is None:
            return
        for cs in group.compiled.values():
            _add_counters(self._released_counters, cs.counters)
        if group.mapping is not None:
            graph = self.problem(key).graph
            if graph.frozen:
                graph_index(graph).forget(*group.mapping)

    # -- schedules ---------------------------------------------------------

    def mapping(self, key: str, p: int) -> tuple[Placement, dict[str, int]]:
        """The ``(placement, assignment)`` of a workload on ``p``
        processors, built once and shared by every heuristic (treat as
        read-only)."""
        group = self._group(key, p)
        if group.mapping is None:
            prob = self.problem(key)
            placement = prob.placement(p)
            group.mapping = (placement, prob.assignment(placement))
        return group.mapping

    def schedule(self, key: str, p: int, heuristic: str, capacity: Optional[int] = None) -> Schedule:
        return self.compiled(key, p, heuristic, capacity).schedule

    def profile(self, key: str, p: int, heuristic: str, capacity: Optional[int] = None) -> MemoryProfile:
        """Liveness profile of the ``heuristic`` schedule (which it
        holds): the compiled schedule's."""
        return self.compiled(key, p, heuristic, capacity).profile

    def compiled(self, key: str, p: int, heuristic: str, capacity: Optional[int] = None) -> CompiledSchedule:
        """Compiled (validated, preprocessed) form of the ``heuristic``
        schedule for a cell of ``capacity``.

        Only ``dts-merge`` orders under the capacity (DTS slice
        merging); every other heuristic's one compiled schedule serves
        every capacity of a sweep, so the ordering / liveness /
        static-table work is paid once per (workload, procs, heuristic)
        instead of once per cell."""
        cache = self._group(key, p).compiled
        ck = (heuristic, capacity if heuristic == "dts-merge" else None)
        if ck not in cache:
            placement, assignment = self.mapping(key, p)
            cache[ck] = CompiledSchedule(order_with(
                heuristic,
                self.problem(key).graph,
                placement,
                assignment,
                comm=self.spec.comm_model(),
                capacity=ck[1],
            ))
        return cache[ck]

    def reference_tot(self, key: str, p: int) -> int:
        """The RCP schedule's TOT — the 100% reference of section 5.1."""
        return self.profile(key, p, "rcp").tot

    def baseline_pt(self, key: str, p: int, engine: str = "compiled") -> float:
        """Parallel time of the RCP schedule, 100% memory, no memory
        management (the comparison base of Tables 2/3).

        Cached per (workload, procs): the engines agree exactly (the
        differential suite asserts it), so ``engine`` only picks which
        one computes the first value."""
        group = self._group(key, p)
        if group.baseline_pt is None:
            res = Simulator(
                spec=self.spec,
                memory_managed=False,
                compiled=self.compiled(key, p, "rcp"),
                engine=engine,
            ).run()
            group.baseline_pt = res.parallel_time
        return group.baseline_pt

    # -- measurements -------------------------------------------------------

    def bounds_for(
        self, key: str, p: int, heuristic: str,
        capacity: Optional[int] = None,
    ):
        """Certified PT/MIN_MEM lower bounds for the ``heuristic``
        schedule of a cell of ``capacity`` (cached; see
        :func:`repro.analysis.schedule_bounds`).

        The bounds depend only on the graph, placement and assignment —
        not on the per-processor orders or the capacity — so the cache
        is keyed per heuristic: every heuristic but ``etf`` orders on
        the group's mapping, and ETF derives its own.
        """
        cache = self._group(key, p).bounds
        if heuristic not in cache:
            from ..analysis import schedule_bounds

            cache[heuristic] = schedule_bounds(
                self.schedule(key, p, heuristic, capacity),
                comm=self.spec.comm_model(),
            )
        return cache[heuristic]

    def run_cell(
        self,
        key: str,
        p: int,
        heuristic: str,
        fraction: float,
        reference: str = "self",
        engine: str = "compiled",
        columns=(),
    ) -> SweepRecord:
        """Measure one table cell.

        ``reference`` selects the TOT base for the capacity: ``"self"``
        (the schedule's own TOT, Tables 2/3) or ``"rcp"`` (the RCP
        schedule's TOT, Tables 4-7); anything else raises
        ``ValueError``, as does ``"self"`` with ``dts-merge``
        (:func:`require_reference`).

        ``columns`` names the :data:`OPTIONAL_COLUMNS` families to fill
        (an unknown one raises ``ValueError``); the others stay
        ``None``.  The cell's run carries only the instruments those
        families attach (:mod:`repro.obs` probes for ``metrics``, an
        :class:`~repro.conformance.InvariantChecker` for ``check``), and
        runs with different instruments are cached separately, so
        mixing families never reuses the wrong run.  On a
        non-executable cell the simulated columns are ``inf`` like the
        timing fields, and the static ones (``analyze``, ``bounds``
        except ``pt_bound_gap``) keep real values.

        ``engine`` selects the simulator engine (see
        :class:`~repro.machine.simulator.Simulator`): the array-compiled
        engine by default, or ``"interpreted"`` for the reference
        oracle; both give identical records, observed cells included,
        with identical hook calls.
        """
        require_reference(reference, (heuristic,))
        require_known("column family", columns, OPTIONAL_COLUMNS)
        tot = (
            self.reference_tot(key, p)
            if reference == "rcp"
            else self.profile(key, p, heuristic).tot
        )
        capacity = int(math.floor(tot * fraction))
        cs = self.compiled(key, p, heuristic, capacity)
        prof = cs.profile
        base = self.baseline_pt(key, p, engine)
        cell = _Cell(self, key, p, heuristic, capacity, cs)
        families = [name for name in OPTIONAL_COLUMNS if name in columns]
        observed = tuple(
            name for name in families if OPTIONAL_COLUMNS[name].instruments)
        values: dict = {}
        pt = pt_increase = avg_maps = INF
        executable = prof.min_mem <= capacity
        if executable:
            sims = self._group(key, p).sims
            sk = (heuristic, capacity, observed, engine)
            if sk not in sims:
                sims[sk] = self._observed_run(cell, observed, engine)
            run, observed_values = sims[sk]
            values.update(observed_values)
            cell = cell._replace(run=run)
            pt, avg_maps = run.parallel_time, run.avg_maps
            pt_increase = (pt - base) / base
        for name in families:
            if not (executable and name in observed):
                values.update(OPTIONAL_COLUMNS[name].fill(cell))
        return SweepRecord(
            key, p, heuristic, fraction, executable, capacity, prof.min_mem,
            tot, pt, pt_increase, avg_maps, **values,
        )

    def _observed_run(
        self, cell: _Cell, observed: tuple[str, ...], engine: str,
    ) -> tuple[SimResult, dict]:
        """Simulate one cell with the instruments of the ``observed``
        families attached; returns the run (no telemetry) and those
        families' fields."""
        cs = cell.compiled
        probes = {
            name: OPTIONAL_COLUMNS[name].instruments(cs) for name in observed}
        run = Simulator(
            spec=self.spec,
            capacity=cell.capacity,
            compiled=cs,
            instrument=MultiInstrument(
                i for family in probes.values() for i in family),
            engine=engine,
        ).run()
        cell = cell._replace(run=run)
        values: dict = {}
        for name, family in probes.items():
            values.update(OPTIONAL_COLUMNS[name].fill(cell, family))
        return run, values

    def engine_counters(self) -> dict:
        """Aggregated engine introspection counters over every compiled
        schedule this context built, including those of groups already
        dropped by :meth:`release` (see
        :data:`~repro.machine.simulator.ENGINE_COUNTER_KEYS`): MAP-plan /
        lowering cache hits and misses, MAP-table lookups, timers and run
        counts per engine."""
        totals = dict(self._released_counters)
        for group in self._groups.values():
            for cs in group.compiled.values():
                _add_counters(totals, cs.counters)
        return totals


def compare_pt(a: SweepRecord, b: SweepRecord) -> float | str:
    """The paper's 'A vs. B' entry: ``PT_B / PT_A - 1``.

    ``"*"`` when B is executable but A is not; ``"-"`` when neither is.
    """
    if a.executable and b.executable:
        return b.parallel_time / a.parallel_time - 1.0
    if b.executable:
        return "*"
    if a.executable:
        return "!"  # A runs, B does not (no such entries in the paper)
    return "-"

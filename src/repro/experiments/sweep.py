"""Generic parameter sweeps with CSV export.

The table modules regenerate the paper's exact layouts; downstream users
usually want the raw grid instead.  :func:`full_sweep` runs every
(workload × processors × heuristic × memory fraction) combination
through the cached :class:`~repro.experiments.common.ExperimentContext`
and returns flat records; :func:`to_csv` serialises them (stdlib only).

Grid cells are independent, so :func:`full_sweep` can fan the grid out
over worker processes (``jobs > 1``).  Work is grouped by
(workload, processors): every cell of a group shares the group's
schedules, compiled simulator tables and RCP baseline, so that shared
work is computed once per group rather than once per cell, and freed
(:meth:`~repro.experiments.common.ExperimentContext.release`) when the
group finishes, so a sweep holds one group's tables at a time.  Results
are returned in the same deterministic order as the serial sweep — the
simulation itself is deterministic, so ``jobs=N`` produces records (and
CSV bytes) identical to ``jobs=1``.

Every parallel sweep runs under the one fault-tolerant executor,
:func:`repro.experiments.runtime.run_supervised`: per-group timeouts,
bounded retries, worker-pool resurrection, structured failure records
instead of an aborted sweep, and an optional checkpoint journal
(:mod:`repro.experiments.checkpoint`) that makes interrupted sweeps
resumable — see the ``runtime``/``checkpoint``/``resume`` parameters of
:func:`full_sweep` and ``docs/resilience.md``.

Each cell is one :class:`~repro.experiments.common.SweepRecord`, the
record :meth:`~repro.experiments.common.ExperimentContext.run_cell`
returns.  The opt-in CSV columns come in families, one per
:func:`full_sweep` flag; :data:`~repro.experiments.common.OPTIONAL_COLUMNS`
lists them in CSV order and is the one place a family's fields,
instruments and collection are spelled out.
"""

from __future__ import annotations

import csv
import io
import os
from typing import Iterable, Optional, Sequence, get_args, get_type_hints

from ..fileio import atomic_write_text
from .common import (
    OPTIONAL_COLUMNS,
    ExperimentContext,
    SweepRecord,
    require_grid,
    require_known,
    require_reference,
)

FIELDS = (
    "workload",
    "procs",
    "heuristic",
    "fraction",
    "executable",
    "capacity",
    "min_mem",
    "tot",
    "parallel_time",
    "pt_increase",
    "avg_maps",
)

#: Failure columns appended when a *supervised* sweep recorded at least
#: one :class:`~repro.experiments.runtime.CellFailure` (opt-in, same
#: contract — a fault-free supervised sweep's CSV is byte-identical to
#: a plain one's).
FAILURE_FIELDS = ("status", "error", "attempts", "elapsed")


def _run_group(
    ctx: ExperimentContext,
    key: str,
    p: int,
    heuristics: Sequence[str],
    fractions: Sequence[float],
    cell_kw: dict,
) -> list[SweepRecord]:
    """All records of one (workload, procs) group, in grid order;
    ``cell_kw`` holds the keyword arguments of every
    :meth:`~repro.experiments.common.ExperimentContext.run_cell` call.
    No other group reads this group's tables, so they are released
    when it finishes (the sweep's footprint is one group's, not the
    grid's)."""
    try:
        return [
            ctx.run_cell(key, p, h, f, **cell_kw)
            for h in heuristics for f in fractions
        ]
    finally:
        ctx.release(key, p)


#: Per-worker-process context, built once by :func:`_worker_init`.  A
#: worker runs distinct (workload, procs) groups, which share only the
#: built problems and the graph-level index memos; the context lives on
#: for those and for the engine counters the runtime trace reports.
_WORKER_CTX: Optional[ExperimentContext] = None


def _worker_init(spec, registered) -> None:
    """Build the per-worker context.  ``registered`` holds only the
    custom problems the grid actually names (see
    :meth:`~repro.experiments.common.ExperimentContext.shipped_problems`),
    so workers never re-register workloads the sweep will not run."""
    global _WORKER_CTX
    _WORKER_CTX = ExperimentContext(spec=spec)
    for key, problem in registered.items():
        _WORKER_CTX.register(key, problem)


def _worker_run_group(args) -> list[SweepRecord]:
    assert _WORKER_CTX is not None
    return _run_group(_WORKER_CTX, *args)


def _worker_engine_counters() -> dict:
    """Aggregated engine introspection counters of this worker's
    context (empty before :func:`_worker_init` ran); the supervised
    entry point emits per-attempt deltas into the runtime trace."""
    return _WORKER_CTX.engine_counters() if _WORKER_CTX is not None else {}


def _failure_records(
    failure,
    heuristics: Sequence[str],
    fractions: Sequence[float],
) -> list[SweepRecord]:
    """Expand one :class:`~repro.experiments.runtime.CellFailure` into
    per-cell records carrying the failure columns (timing fields are
    ``inf``, like non-executable cells)."""
    inf = float("inf")
    message = " ".join(failure.error.split())
    return [
        SweepRecord(
            workload=failure.workload,
            procs=failure.procs,
            heuristic=h,
            fraction=f,
            executable=False,
            capacity=0,
            min_mem=0,
            tot=0,
            parallel_time=inf,
            pt_increase=inf,
            avg_maps=inf,
            status=failure.status,
            error=message,
            attempts=failure.attempts,
            elapsed=failure.elapsed,
        )
        for h in heuristics
        for f in fractions
    ]


def full_sweep(
    ctx: ExperimentContext,
    workloads: Sequence[str] = ("chol15", "lu-goodwin"),
    procs: Sequence[int] = (2, 4, 8, 16, 32),
    heuristics: Sequence[str] = ("rcp", "mpo", "dts"),
    fractions: Sequence[float] = (1.0, 0.75, 0.5, 0.4, 0.25),
    reference: str = "rcp",
    jobs: Optional[int] = 1,
    engine: str = "compiled",
    runtime=None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    harness_faults=None,
    obs_dir: Optional[str] = None,
    progress: bool = False,
    **columns: bool,
) -> list[SweepRecord]:
    """Run the full grid; non-executable cells get ``inf`` metrics.

    The grid is validated before any work starts: an unknown workload
    raises ``KeyError``; an unknown heuristic, ``reference``,
    ``engine`` or column flag, ``reference="self"`` with ``dts-merge``
    (see :func:`~repro.experiments.common.require_reference`), a
    processor count below 1 or a negative or non-finite fraction raises
    ``ValueError``.

    ``jobs`` selects the number of worker processes (``None``/``0`` =
    one per CPU).  Parallel runs return exactly the records of the
    serial run, in the same order; the workers rebuild their own
    :class:`~repro.experiments.common.ExperimentContext` from
    ``ctx.spec``, so custom problems registered on ``ctx`` must be
    picklable to sweep with ``jobs > 1``.

    The keyword flags ``metrics``, ``check``, ``analyze`` and
    ``bounds`` (``**columns``) each fill one family of
    :data:`~repro.experiments.common.OPTIONAL_COLUMNS` (``None`` in
    every record otherwise).  None of them changes the core fields,
    because the simulation is deterministic.  On non-executable cells
    the simulated columns (telemetry, ``violations``, ``pt_bound_gap``)
    are ``inf`` like the timing fields, and the static columns
    (``analysis_errors``, the bounds) keep real values.

    ``engine`` selects the simulator engine for every cell (see
    :class:`~repro.machine.simulator.Simulator`): the array-compiled
    engine by default, ``"interpreted"`` for the reference oracle.  The
    engines agree exactly on all record fields — both produce
    byte-identical CSV, the compiled engine faster, observed
    (``metrics``/``check``) cells included: they run on the requested
    engine with the oracle's exact instrument hook calls.

    A serial (``jobs=1``) or single-group sweep runs in this process.
    Every other sweep — ``jobs > 1``, or any of ``runtime`` (a
    :class:`~repro.experiments.runtime.RuntimePolicy`; the default
    ``RuntimePolicy()`` when omitted), ``checkpoint`` (a journal
    directory), ``resume``, ``harness_faults`` (a
    :class:`~repro.experiments.runtime.HarnessFaultSpec`), ``obs_dir``
    or ``progress`` — runs under the supervised executor
    (:mod:`repro.experiments.runtime`): per-group wall-clock timeouts,
    bounded retries with deterministic backoff, worker-pool
    resurrection, streaming checkpoints, and structured failure records
    (the ``status``/``error``/``attempts``/``elapsed`` columns) instead
    of an aborted sweep.  A fault-free supervised sweep returns exactly
    the serial records; ``resume=True`` replays groups already
    committed to the ``checkpoint`` journal and executes only the
    remainder, so a resumed run's CSV is byte-identical to an
    uninterrupted one.

    ``obs_dir`` (a directory path) makes the run *observed*: the
    supervisor and every worker append runtime-trace shards there
    (schema ``repro-runtime-trace/1``; see :mod:`repro.obs.runtime`),
    and ``progress=True`` drives a live stderr ticker from the same
    event stream.
    """
    from ..machine.simulator import ENGINES
    from ..rapid.inspector import HEURISTICS

    require_known("workload", workloads, ctx.known_workloads(), KeyError)
    require_known("heuristic", heuristics, HEURISTICS)
    require_reference(reference, heuristics)
    require_known("engine", (engine,), ENGINES)
    require_known("column family", columns, OPTIONAL_COLUMNS)
    require_grid(procs, fractions)
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint directory")
    if not jobs or jobs < 0:
        jobs = os.cpu_count() or 1
    on = tuple(name for name in OPTIONAL_COLUMNS if columns.get(name))
    cell_kw = dict(reference=reference, engine=engine, columns=on)
    groups = [(key, p) for key in workloads for p in procs]
    supervised = (
        runtime is not None or checkpoint is not None or resume
        or harness_faults is not None or obs_dir is not None or progress
    )
    if not supervised and (jobs == 1 or len(groups) <= 1):
        return [
            rec for key, p in groups
            for rec in _run_group(ctx, key, p, heuristics, fractions, cell_kw)
        ]

    from .runtime import CellFailure, run_supervised

    registered = ctx.shipped_problems(workloads)
    tracer = None
    t_begin = None
    if obs_dir is not None or progress:
        from time import monotonic

        from ..obs.runtime import MultiSink, RuntimeTracer, SweepProgress

        t_begin = monotonic()
        sinks: list = []
        if obs_dir is not None:
            sinks.append(RuntimeTracer(obs_dir, role="supervisor"))
        if progress:
            sinks.append(SweepProgress(total=len(groups)))
        tracer = sinks[0] if len(sinks) == 1 else MultiSink(sinks)

    journal = None
    # group -> records (journalled, then fresh) or a CellFailure
    done: dict[tuple[str, int], object] = {}
    if checkpoint is not None:
        from .checkpoint import CheckpointJournal, grid_fingerprint

        journal = CheckpointJournal(
            checkpoint,
            grid_fingerprint(
                ctx.spec, workloads, procs, heuristics, fractions, reference,
                engine=engine, harness_faults=harness_faults,
                **{name: name in on for name in OPTIONAL_COLUMNS},
            ),
        )
        journal.start(resume=resume)
        if resume:
            done = journal.completed()
    todo = [
        (group, (*group, tuple(heuristics), tuple(fractions), cell_kw))
        for group in groups
        if group not in done
    ]

    def on_group(key, records) -> None:
        journal.record_group(key[0], key[1], records)
        if tracer is not None:
            tracer.emit("checkpoint_shard", group=key, records=len(records))

    try:
        if tracer is not None:
            tracer.emit("sweep_begin", groups=len(groups), todo=len(todo),
                        resumed=len(done), jobs=jobs)
            for key in done:
                tracer.emit("resume_hit", group=key,
                            records=len(done[key]))
        outcomes = run_supervised(
            todo,
            jobs=jobs,
            initializer=_worker_init,
            initargs=(ctx.spec, registered),
            policy=runtime,
            faults=harness_faults,
            on_complete=on_group if journal is not None else None,
            tracer=tracer,
            obs_dir=obs_dir,
        )
        done.update((group, result) for (group, _), result in zip(todo, outcomes))
        out = []
        for group in groups:
            result = done[group]
            if isinstance(result, CellFailure):
                out.extend(_failure_records(result, heuristics, fractions))
            else:
                out.extend(result)
        if tracer is not None:
            from time import monotonic

            from ..obs.runtime import status_counts

            tracer.emit("sweep_end", counts=status_counts(out),
                        elapsed=round(monotonic() - t_begin, 3))
        return out
    finally:
        if tracer is not None:
            tracer.close()


def to_csv(records: Iterable[SweepRecord], path: Optional[str] = None) -> str:
    """Serialise sweep records as CSV; optionally write to ``path``.

    The header is :data:`FIELDS`, then each family of
    :data:`~repro.experiments.common.OPTIONAL_COLUMNS` (in table order)
    and the :data:`FAILURE_FIELDS` that some record carries.  A family
    no record populates is omitted, so a sweep without opt-in flags or
    failures writes exactly the plain CSV.  ``inf`` is written as ``inf`` and an
    unpopulated cell as the empty string.

    Writing is crash-safe: the text goes to a same-directory temporary
    file and is atomically renamed into place, so an interrupted sweep
    never leaves a truncated CSV behind.
    """
    records = list(records)
    fields = FIELDS + tuple(
        name
        for family in (
            *(fam.fields for fam in OPTIONAL_COLUMNS.values()), FAILURE_FIELDS)
        if any(getattr(r, family[0]) is not None for r in records)
        for name in family
    )
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(vars(r) for r in records)
    text = buf.getvalue()
    if path:
        atomic_write_text(path, text)
    return text


def _cell_parser(tp):
    """CSV text -> value for a :class:`SweepRecord` field annotated
    ``tp``; an ``Optional`` field maps the empty cell to ``None``."""
    inner = [a for a in get_args(tp) if a is not type(None)]
    base = inner[0] if inner else tp
    parse = (lambda x: x == "True") if base is bool else base
    if not inner:
        return parse
    return lambda x: None if x == "" else parse(x)


_PARSERS = {
    name: _cell_parser(tp) for name, tp in get_type_hints(SweepRecord).items()
}


def from_csv(text: str) -> list[SweepRecord]:
    """Parse CSV produced by :func:`to_csv` (round-trip support), with
    any subset of the optional columns; each cell is parsed with the
    type its :class:`SweepRecord` field declares."""
    return [
        SweepRecord(**{k: _PARSERS[k](v) for k, v in row.items() if k in _PARSERS})
        for row in csv.DictReader(io.StringIO(text))
    ]

"""Differential oracle: three executions, one answer.

Section 3.4 of the paper argues that any dependence-respecting
interleaving of the transformed task graph computes the same values.
The repo has three independent execution layers that should therefore
agree on the final state of the data store:

1. **serial** — :func:`repro.rapid.executor.execute_serial` in a
   topological order of the graph;
2. **scheduled** — :func:`repro.rapid.executor.execute_schedule`, the
   schedule's own global linearization;
3. **simulated** — the timed
   :class:`~repro.machine.simulator.Simulator`, whose dataflow the
   :class:`DataflowRecorder` instrument observes (which producer-unit
   version each object ends the run with).

Kernels are optional in this codebase (the paper-table graphs are
timing-only), so the oracle always compares final *versions* — the
(object -> last-writing producer unit) map, which the simulator's
consistency machinery also enforces per message — and additionally
compares final *values* whenever the graph carries kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..machine.simulator import CompiledSchedule, Simulator, resolve_compiled
from ..machine.spec import UNIT_MACHINE, MachineSpec
from ..obs.instrument import Instrument
from ..rapid.executor import execute_serial, global_order

__all__ = ["DataflowRecorder", "OracleReport", "differential_check", "replay_versions"]


class DataflowRecorder(Instrument):
    """Observe which producer-unit version each object ends a run with.

    Write-write dependences order the EXE events of any two writers of
    one object, so applying the writes in EXE order reproduces the
    simulator's final ``current_version`` map without touching its
    internals.  The writes come from the reference's
    :func:`~repro.machine.reference.name_tables`, not from the compiled
    engine's lowering.
    """

    def __init__(self, compiled: CompiledSchedule):
        from ..machine.reference import name_tables

        self.compiled = compiled
        self._write_version = name_tables(compiled).write_version
        self.final: dict[str, str] = {}

    def on_run_begin(self, t, nprocs, capacity, memory_managed) -> None:
        self.final = {}

    def on_exe(self, t0, t1, proc, task) -> None:
        for obj, unit in self._write_version[task]:
            self.final[obj] = unit


def replay_versions(graph, order) -> dict[str, str]:
    """Final (object -> producer unit) map of replaying ``order``."""
    final: dict[str, str] = {}
    for name in order:
        t = graph.task(name)
        unit = t.commute if t.commute is not None else name
        for obj in t.writes:
            final[obj] = unit
    return final


@dataclass
class OracleReport:
    """Outcome of one differential check."""

    versions_ok: bool
    #: ``None`` when the graph carries no kernels (nothing to compare).
    values_ok: Optional[bool]
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.versions_ok and self.values_ok is not False

    def __str__(self) -> str:
        if self.ok:
            values = "skipped (no kernels)" if self.values_ok is None else "ok"
            return f"oracle: versions ok, values {values}"
        return "oracle MISMATCH:\n" + "\n".join(f"  {m}" for m in self.mismatches)


def _values_equal(a, b, rtol: float, atol: float) -> bool:
    try:
        return bool(np.allclose(a, b, rtol=rtol, atol=atol))
    except (TypeError, ValueError):
        return a == b


def differential_check(
    schedule=None,
    *,
    spec: MachineSpec = UNIT_MACHINE,
    capacity: Optional[int] = None,
    compiled: Optional[CompiledSchedule] = None,
    store_factory: Optional[Callable[[], dict]] = None,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> OracleReport:
    """Run the three execution layers and compare their final state.

    ``store_factory`` builds a fresh initial data store per numeric
    execution (required for value comparison when the graph has
    kernels; each layer must start from identical state).  ``capacity``
    defaults to the schedule's ``TOT`` so the timed run is always
    executable.  The schedule is ``compiled.schedule`` when given
    (:func:`~repro.machine.simulator.resolve_compiled`).
    """
    compiled = resolve_compiled(schedule, compiled)
    g = compiled.graph
    mismatches: list[str] = []

    serial_order = g.topological_order()
    sched_order = global_order(compiled.schedule)
    expect = replay_versions(g, serial_order)
    got_sched = replay_versions(g, sched_order)
    if capacity is None:
        capacity = max(compiled.profile.tot, 1)
    recorder = DataflowRecorder(compiled)
    Simulator(
        spec=spec, capacity=capacity, compiled=compiled, instrument=recorder
    ).run()
    got_sim = recorder.final
    for obj in sorted(expect):
        a, b, c = expect[obj], got_sched.get(obj), got_sim.get(obj)
        if not (a == b == c):
            mismatches.append(
                f"version of {obj!r}: serial={a!r} schedule={b!r} "
                f"simulator={c!r}"
            )
    versions_ok = not mismatches

    values_ok: Optional[bool] = None
    has_kernels = any(t.kernel is not None for t in g.tasks())
    if has_kernels and store_factory is not None:
        store_a = execute_serial(g, store_factory(), serial_order)
        store_b = execute_serial(g, store_factory(), sched_order)
        values_ok = True
        if set(store_a) != set(store_b):
            values_ok = False
            mismatches.append(
                f"store keys differ: {sorted(set(store_a) ^ set(store_b))}"
            )
        else:
            for k in sorted(store_a):
                if not _values_equal(store_a[k], store_b[k], rtol, atol):
                    values_ok = False
                    mismatches.append(
                        f"value of {k!r}: serial={store_a[k]!r} "
                        f"schedule={store_b[k]!r}"
                    )
    return OracleReport(
        versions_ok=versions_ok, values_ok=values_ok, mismatches=mismatches
    )

"""Batch analysis and the static/dynamic differential contract.

:func:`analyze_batch` statically analyzes exactly the cases
``repro check`` simulates (same seeds, same heuristics, same capacity
resolution), so every :class:`~repro.conformance.check.CheckReport` has
a twin :class:`~repro.analysis.engine.AnalysisReport` with the same
label — the differential suite zips them.

The contract between the verdicts:

* ``SA1xx``/``SA2xx`` errors predict a refusal on entry: both engines
  refuse such a plan when the simulator is built
  (:meth:`~repro.core.maps.MapPlan.check`, the same replay), with one
  ``SimulationError`` carrying the first error's message, which
  ``run_check`` reports as its ``error``; with no plan at all
  (``SA101``) the planner raises ``NonExecutableScheduleError``.
* ``SA3xx`` hazards predict failure under the *adversarial* regime
  (the ``overwrite`` fault, which makes the one-slot channel lossy as
  Definition 4 warns).  Without the fault the simulator's blocking
  protocol can mask a buggy plan — the hazard is still real, which is
  exactly why the static check exists.
* Timing faults (delay/jitter/consume/slow/tighten) never change the
  plan, so a clean static verdict predicts a clean checked run — the
  golden fault matrix agrees.

Conformance imports are deferred into the functions: ``repro.analysis``
depends only on ``core``, while ``repro.conformance`` may annotate its
violations with this package's rule codes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .engine import AnalysisReport, analyze_plan, analyze_schedule

__all__ = ["analyze_batch", "analyze_overwrite_demo"]


def analyze_batch(
    seed: int,
    *,
    graphs: int = 10,
    procs: int = 3,
    heuristics: Sequence[str] = ("rcp", "mpo", "dts"),
    fraction: Optional[float] = 0.5,
    faults=None,
    tasks: int = 30,
    objects: int = 6,
    include_paper: bool = True,
) -> list[AnalysisReport]:
    """Static twin of :func:`repro.conformance.check.check_batch`.

    ``faults`` only contributes its ``capacity_fraction`` (the *tighten*
    knob): timing faults do not change the schedule or plan, so the
    static verdict is the same with or without them.
    """
    from ..conformance.check import batch_cases
    from ..rapid.inspector import order_with

    frac = fraction
    if faults is not None and faults.capacity_fraction is not None:
        frac = faults.capacity_fraction
    reports: list[AnalysisReport] = []
    for name, g, pl, asg in batch_cases(
        seed, graphs=graphs, procs=procs, tasks=tasks, objects=objects,
        include_paper=include_paper,
    ):
        for h in heuristics:
            sched = order_with(h, g, pl, asg)
            reports.append(
                analyze_schedule(sched, fraction=frac, label=f"{name}/{h}")
            )
    return reports


def analyze_overwrite_demo() -> AnalysisReport:
    """Static analysis of the buggy-planner scenario behind
    :func:`repro.conformance.check.overwrite_demo`: expects ``SA302``
    (both packages race P1's slot) and ``SA301`` with the same
    ``P0 -> P1 -> P0`` cycle the dynamic witness shows."""
    from ..conformance.check import overwrite_scenario

    return analyze_plan(overwrite_scenario(), label="overwrite-demo")

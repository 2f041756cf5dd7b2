"""The pass pipeline: one static analysis of a schedule + MAP plan.

:func:`analyze_schedule` resolves the capacity and plans for it
(mirroring the conformance harness so static and dynamic verdicts are
about the *same* configuration), :func:`analyze_plan` takes both from an
existing plan; either runs the two passes in order — memory and MAP-chain
liveness (Defs 3-6), protocol (Def 4 / Theorem 1) — and returns an
:class:`AnalysisReport`.  Cost is O(plan): no simulator, no
event loop; ``benchmarks/bench_cost_budgets.py`` holds it at least 5x
cheaper than a checked simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..core.liveness import MemoryProfile, analyze_memory
from ..core.maps import MapPlan, check_capacity, plan_maps
from ..core.schedule import CommModel, Schedule
from ..errors import CapacityError, SchedulingError
from .bounds import bounds_pass
from .diagnostics import Diagnostic, Severity
from .memory import memory_pass
from .protocol import protocol_pass

__all__ = [
    "AnalysisContext",
    "AnalysisReport",
    "analyze_plan",
    "analyze_schedule",
    "pick_capacity",
]


def pick_capacity(profile: MemoryProfile, fraction: Optional[float]) -> int:
    """Capacity between MIN_MEM (0.0) and TOT (1.0); ``None`` = TOT.

    The canonical knob shared by ``repro check`` and ``repro analyze``
    (the conformance harness delegates here), so both layers judge the
    same capacity for a given fraction.  A finite fraction outside
    ``[0, 1]`` is clamped; a NaN one raises
    :class:`~repro.errors.CapacityError`.
    """
    if fraction is None:
        return max(profile.tot, 1)
    if math.isnan(fraction):
        raise CapacityError("fraction", fraction, "a number")
    fraction = min(max(fraction, 0.0), 1.0)
    cap = profile.min_mem + fraction * (profile.tot - profile.min_mem)
    return max(int(math.floor(cap)), profile.min_mem, 1)


@dataclass
class AnalysisContext:
    """Shared state handed to every pass."""

    capacity: int
    profile: MemoryProfile
    #: ``None`` when the schedule is non-executable under the capacity.
    plan: Optional[MapPlan]
    #: Communication model of the SA4xx bound comparisons; ``None``
    #: falls back to the unit-cost model of the worked examples.
    comm: Optional[CommModel] = None

    @property
    def schedule(self) -> Schedule:
        return self.profile.schedule


@dataclass
class AnalysisReport:
    """All findings of one static analysis."""

    label: str
    capacity: int
    num_procs: int
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity == Severity.WARNING]

    @property
    def ok(self) -> bool:
        """No error-severity findings (warnings/infos do not fail)."""
        return not self.errors

    def by_rule(self) -> dict[str, list[Diagnostic]]:
        out: dict[str, list[Diagnostic]] = {}
        for d in self.diagnostics:
            out.setdefault(d.rule, []).append(d)
        return out

    def cycles(self) -> list[tuple[int, ...]]:
        """Processor cycles of the deadlock findings (SA301)."""
        return [d.cycle for d in self.diagnostics if d.cycle]

    def summary(self) -> str:
        if not self.diagnostics:
            return f"{self.label}: OK (capacity={self.capacity})"
        counts = {code: len(ds) for code, ds in sorted(self.by_rule().items())}
        body = ", ".join(f"{c} x{n}" for c, n in counts.items())
        verdict = "OK" if self.ok else "FAIL"
        return f"{self.label}: {verdict} ({body}; capacity={self.capacity})"

    def render(self, hints: bool = False) -> str:
        lines = [self.summary()]
        for d in self.diagnostics:
            lines.append(f"  {d}")
            if hints:
                lines.append(f"    hint: {d.hint}")
            if d.witness:
                lines.extend(f"    {ln}" for ln in d.witness.splitlines())
        return "\n".join(lines)


_PASSES = (memory_pass, protocol_pass)


def analyze_schedule(
    schedule: Schedule,
    *,
    capacity: Optional[int] = None,
    fraction: Optional[float] = None,
    profile: Optional[MemoryProfile] = None,
    label: str = "",
    bounds: bool = False,
    comm: Optional[CommModel] = None,
) -> AnalysisReport:
    """Statically analyze ``schedule`` under a capacity.

    Capacity resolution mirrors :func:`repro.conformance.check.run_check`:
    explicit ``capacity`` wins (one that is not a finite integer >= 0
    raises :class:`~repro.errors.CapacityError`), else ``fraction``
    interpolates between MIN_MEM and TOT, else TOT.  The plan is
    computed with :func:`repro.core.maps.plan_maps`; a non-executable
    schedule yields no plan and is reported via ``SA101`` instead of
    raising.  A given profile must be this schedule's, else
    :class:`~repro.errors.SchedulingError`.  An existing plan is
    analyzed by :func:`analyze_plan`.

    ``bounds=True`` additionally runs the certified-bound pass
    (``SA401``-``SA403``, see :mod:`repro.analysis.bounds`) under
    ``comm`` — opt-in because it prices a Gantt evaluation on top of
    the O(plan) core pipeline.
    """
    if profile is None:
        profile = analyze_memory(schedule)
    elif profile.schedule is not schedule:
        raise SchedulingError("profile does not match the schedule")
    capacity = (pick_capacity(profile, fraction) if capacity is None
                else check_capacity(capacity))
    plan = (plan_maps(profile, capacity)
            if profile.executable_under(capacity) else None)
    return _run_passes(AnalysisContext(capacity, profile, plan, comm),
                       label, bounds)


def analyze_plan(plan: MapPlan, label: str = "") -> AnalysisReport:
    """Analyze an existing plan under the profile and the capacity it
    was made from."""
    return _run_passes(AnalysisContext(plan.capacity, plan.profile, plan),
                       label, bounds=False)


def _run_passes(ctx: AnalysisContext, label: str,
                bounds: bool) -> AnalysisReport:
    schedule = ctx.schedule
    report = AnalysisReport(
        label=label or schedule.meta.get("heuristic", "schedule"),
        capacity=ctx.capacity,
        num_procs=schedule.num_procs,
    )
    for p in _PASSES:
        report.diagnostics.extend(p(ctx))
    if bounds:
        report.diagnostics.extend(bounds_pass(ctx))
    return report

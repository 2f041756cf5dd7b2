"""Static schedule sanitizer: prove Definitions 1-6 / Theorem 1
properties from the plan IR, before any simulation.

The conformance layer (:mod:`repro.conformance`) observes one dynamic
execution; this package proves the same catalogue *statically* on the
``Schedule``/``MapPlan`` IR in O(plan) time: memory executability
(``SA1xx``) and free/alloc liveness (``SA2xx``) from one replay of the
MAP chains (:mod:`repro.analysis.memory`), and the one-slot
address-package protocol with Theorem 1's wait-for argument
(``SA3xx``).  Entry points::

    report  = analyze_schedule(schedule, fraction=0.5)
    reports = analyze_batch(seed=7)        # the `repro analyze` batch
    demo    = analyze_overwrite_demo()     # buggy planner, caught

Findings are typed :class:`~repro.analysis.diagnostics.Diagnostic`
values with stable rule codes shared with the dynamic invariant
catalogue, exportable as text, ``repro-analysis/1`` JSON, or SARIF.

Two further static layers close the loop around the compiled engine:
:mod:`repro.analysis.bounds` certifies PT/MIN_MEM *lower bounds* from
the graph + placement alone (``SA4xx``, opt-in via
``analyze_schedule(bounds=True)``), and :mod:`repro.analysis.irverify`
verifies the lowered ``LoweredSchedule`` IR and the MAP tables the way
``llvm::verifyModule`` verifies a module (``SA5xx``, automatic behind
``REPRO_VERIFY_IR`` or on demand via ``repro analyze --verify-ir``).
"""

from .bounds import (
    Bound,
    BoundSet,
    bounds_pass,
    certified_bounds,
    memory_bounds,
    schedule_bounds,
    time_bounds,
)
from .diagnostics import Diagnostic, INVARIANT_RULES, RULES, Rule, Severity
from .engine import (
    AnalysisContext,
    AnalysisReport,
    analyze_plan,
    analyze_schedule,
    pick_capacity,
)
from .formats import render_text, to_json, to_sarif
from .harness import analyze_batch, analyze_overwrite_demo
from .irverify import (
    debug_verify,
    verify_exec_plan,
    verify_lowering,
    verify_report,
)

__all__ = [
    "AnalysisContext",
    "AnalysisReport",
    "Bound",
    "BoundSet",
    "Diagnostic",
    "INVARIANT_RULES",
    "RULES",
    "Rule",
    "Severity",
    "analyze_batch",
    "analyze_overwrite_demo",
    "analyze_plan",
    "analyze_schedule",
    "bounds_pass",
    "certified_bounds",
    "debug_verify",
    "memory_bounds",
    "pick_capacity",
    "render_text",
    "schedule_bounds",
    "time_bounds",
    "to_json",
    "to_sarif",
    "verify_exec_plan",
    "verify_lowering",
    "verify_report",
]

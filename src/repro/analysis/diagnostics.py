"""Typed diagnostics for the static schedule sanitizer.

Every finding of the analyzer is a :class:`Diagnostic` carrying a stable
rule code from the registry below.  Codes are grouped by the layer of
the paper's correctness story they prove:

* ``SA1xx`` — memory: MEM_REQ/MIN_MEM executability (Definitions 5-6)
  and capacity accounting of the MAP plan;
* ``SA2xx`` — liveness: the free/alloc chains of the MAP plan against
  the volatile life spans, and the MAPs' placement (Definitions 3-4);
* ``SA3xx`` — protocol: the one-slot address-package channel and the
  wait-for structure behind Theorem 1's deadlock-freedom argument.

The registry is shared with the dynamic layer: every invariant of
:data:`repro.conformance.invariants.INVARIANTS` maps to the static rule
that proves the same property (:data:`INVARIANT_RULES`), so a dynamic
violation and its static prediction carry the same code in reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "Diagnostic",
    "INVARIANT_RULES",
    "RULES",
    "Rule",
    "Severity",
]


class Severity(enum.IntEnum):
    """Ordered severity; only :attr:`ERROR` findings fail a run."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Rule:
    """One entry of the static rule catalogue."""

    code: str
    #: kebab-case short name, stable like the code.
    name: str
    severity: Severity
    #: paper anchor (Definition / Theorem / section).
    anchor: str
    #: one-line statement of the property the rule checks.
    summary: str
    #: how to fix a finding, phrased for the plan author.
    hint: str


_RULE_TABLE = (
    # -- SA1xx: memory (Definitions 5-6) ------------------------------
    Rule(
        "SA101", "non-executable-schedule", Severity.ERROR,
        "Definitions 5-6",
        "a processor's MIN_MEM exceeds the capacity; no MAP plan exists",
        "raise the capacity to MIN_MEM or re-schedule with a "
        "memory-oriented heuristic (mpo/dts) to lower the peak",
    ),
    Rule(
        "SA102", "plan-over-capacity", Severity.ERROR,
        "Definition 6",
        "replaying the plan's frees/allocs exceeds the capacity",
        "insert an earlier MAP so dead volatiles are freed before the "
        "allocation, or allocate later (closer to first use)",
    ),
    Rule(
        "SA103", "dependence-structure-pressure", Severity.INFO,
        "section 1 / conclusion",
        "capacity leaves no headroom for distributed dependence records",
        "budget the runtime's dependence structures (18-50% of memory in "
        "the paper's runs) on top of MIN_MEM when sizing the capacity",
    ),
    # -- SA2xx: liveness (Definitions 3-4) ----------------------------
    Rule(
        "SA201", "use-after-free", Severity.ERROR,
        "Definition 4",
        "a task accesses a volatile object after a MAP freed it",
        "free the object only at a MAP past its last use (the object's "
        "dead point)",
    ),
    Rule(
        "SA202", "double-free", Severity.ERROR,
        "Definition 4",
        "a MAP frees an object that is not allocated",
        "each volatile object must be freed at most once per allocation, "
        "and only after a MAP allocated it",
    ),
    Rule(
        "SA203", "leaked-volatile", Severity.WARNING,
        "Definition 4",
        "a dead volatile object survives a later MAP without being freed",
        "free dead objects at the next MAP; leaks raise the peak above "
        "the liveness-derived MEM_REQ",
    ),
    Rule(
        "SA204", "dead-allocation", Severity.WARNING,
        "Definition 3",
        "a MAP allocates an object no task on the processor accesses",
        "drop the allocation (and its notification); it wastes capacity "
        "and an address-package entry",
    ),
    Rule(
        "SA205", "use-without-alloc", Severity.ERROR,
        "Definition 3",
        "a task accesses a volatile object no MAP allocated",
        "allocate the object at a MAP at or before its first use so the "
        "owner's put has landing space",
    ),
    Rule(
        "SA206", "double-alloc", Severity.ERROR,
        "Definition 3",
        "a MAP allocates an object that is already allocated",
        "allocate each volatile object once per life span; re-allocation "
        "is only legal after a free",
    ),
    Rule(
        "SA207", "misplaced-map", Severity.ERROR,
        "Definition 4",
        "two MAPs share a (processor, position), or a MAP sits outside "
        "its processor's order; the machine refuses the plan",
        "merge MAPs that share a position into one, and place every MAP "
        "before a task of its processor's order",
    ),
    # -- SA3xx: protocol (Definition 4 / Theorem 1) -------------------
    Rule(
        "SA301", "protocol-deadlock", Severity.ERROR,
        "Theorem 1",
        "the static wait-for graph over data and address-slot "
        "dependences has a cycle",
        "break the cycle: restore the lost address package or reorder "
        "the MAPs so every package is consumed before the next send",
    ),
    Rule(
        "SA302", "slot-overwrite-hazard", Severity.ERROR,
        "Definition 4",
        "consecutive packages to one destination with no consuming task "
        "in between; the one-slot channel can be overwritten",
        "a MAP may only notify a destination again after a task consumed "
        "an object of the previous package (self-throttling rule)",
    ),
    Rule(
        "SA303", "missing-notification", Severity.ERROR,
        "Definition 3",
        "an allocated volatile object's owner is never notified of the "
        "address",
        "add the object to a MAP's address package for its owner; "
        "otherwise the owner's put suspends forever",
    ),
    Rule(
        "SA304", "order-cycle", Severity.ERROR,
        "Definition 1",
        "the processor orders conflict with the dependence DAG (the "
        "combined graph has a cycle)",
        "re-topologically-sort the per-processor orders; no task may be "
        "ordered before one of its DAG predecessors' sequence chain",
    ),
    # -- SA4xx: certified static bounds (Defs 5-6) --------------------
    Rule(
        "SA401", "certified-bounds", Severity.INFO,
        "Definitions 5-6",
        "the certified PT/MIN_MEM lower bounds and their certificates",
        "advisory only; compare the schedule's numbers against the "
        "bounds to judge how far a heuristic is from optimal",
    ),
    Rule(
        "SA402", "pt-beats-bound", Severity.ERROR,
        "Definition 1 / section 4.1",
        "the schedule's predicted PT undercuts a certified lower bound",
        "no valid schedule can beat the bound; audit the cost model, "
        "the task weights and the Gantt computation for corruption",
    ),
    Rule(
        "SA403", "min-mem-beats-bound", Severity.ERROR,
        "Definitions 5-6",
        "the profile's MIN_MEM undercuts a certified lower bound",
        "no valid order can run below the residency bound; audit the "
        "liveness analysis and the object sizes for corruption",
    ),
    # -- SA5xx: lowered-IR verification (compiled engine) -------------
    Rule(
        "SA501", "csr-well-formed", Severity.ERROR,
        "ROADMAP item 1",
        "a lowered CSR table has non-monotone pointers or out-of-space "
        "indices",
        "the lowering is structurally corrupt; rebuild it (clear the "
        "CompiledSchedule caches) and report the lowering bug",
    ),
    Rule(
        "SA502", "id-space-bijective", Severity.ERROR,
        "ROADMAP item 1",
        "a lowered id space does not invert to the schedule or graph "
        "entity it encodes",
        "tids/oids/mks must round-trip their index dicts exactly; a "
        "mismatch means the lowering and the schedule disagree",
    ),
    Rule(
        "SA503", "version-table-consistent", Severity.ERROR,
        "section 3 / Definition 4",
        "the static dispatch-version flags or waiter lists disagree "
        "with the schedule's wait-for data",
        "recompute od_ok0/od_ow from the per-processor order scan; a "
        "drift here silently corrupts version-validity verdicts",
    ),
    Rule(
        "SA504", "opcode-stream-valid", Severity.ERROR,
        "ROADMAP item 1",
        "a silent run holds a non-silent task or stops early, or the "
        "MAP positions leave a processor's order",
        "silent runs may only cover tasks with no inputs, messages or "
        "consumptions; MAP positions must rise strictly inside each "
        "order; regenerate the lowering or exec plan",
    ),
    Rule(
        "SA505", "cost-table-sane", Severity.ERROR,
        "section 5 cost model",
        "a precomputed cost/weight/size is negative, non-finite or "
        "does not reproduce the machine spec's expression",
        "costs must equal the interpreted engine's exact float "
        "expressions; rebuild the exec plan for this spec",
    ),
)

#: code -> :class:`Rule` for the whole catalogue.
RULES: dict[str, Rule] = {r.code: r for r in _RULE_TABLE}

#: Dynamic invariant key (:data:`repro.conformance.invariants.INVARIANTS`)
#: -> static rule code proving the same paper property.
INVARIANT_RULES: dict[str, str] = {
    "input-residency": "SA201",
    "landing-space": "SA205",
    "slot-overwrite": "SA302",
    "capacity": "SA102",
    "suspended-drain": "SA303",
    "termination": "SA301",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer."""

    rule: str
    severity: Severity
    message: str
    proc: Optional[int] = None
    task: Optional[str] = None
    obj: Optional[str] = None
    #: task position within the processor's order the finding anchors to.
    position: Optional[int] = None
    #: processor cycle for deadlock findings, ``(p0, p1, ..., p0)``.
    cycle: tuple[int, ...] = field(default=())
    #: multi-line witness report (wait-for edges + cycle) when available.
    witness: Optional[str] = None

    @classmethod
    def of(cls, code: str, message: str, **kw) -> "Diagnostic":
        """Build a diagnostic with the rule's default severity."""
        return cls(rule=code, severity=RULES[code].severity,
                   message=message, **kw)

    @property
    def rule_info(self) -> Rule:
        return RULES[self.rule]

    @property
    def anchor(self) -> str:
        return self.rule_info.anchor

    @property
    def hint(self) -> str:
        return self.rule_info.hint

    def location(self) -> str:
        parts = []
        if self.proc is not None:
            parts.append(f"P{self.proc}")
        if self.position is not None:
            parts.append(f"pos{self.position}")
        if self.task is not None:
            parts.append(f"task {self.task!r}")
        if self.obj is not None:
            parts.append(f"obj {self.obj!r}")
        return " ".join(parts)

    def __str__(self) -> str:
        loc = self.location()
        loc = f" {loc}" if loc else ""
        return (
            f"[{self.rule} {self.rule_info.name}] "
            f"{self.severity.label}{loc}: {self.message} ({self.anchor})"
        )

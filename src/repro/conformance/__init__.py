"""Conformance layer: fault injection, online invariants, oracle.

This package turns Theorem 1 from a claim into a test surface.  It
provides a deterministic fault-injection layer for the simulator
(:mod:`~repro.conformance.faults`), an online invariant checker built on
the Instrument hooks with a Chrome-trace export of its failing window
(:mod:`~repro.conformance.invariants`), a differential oracle
comparing the simulator's modeled dataflow against the untimed
executors (:mod:`~repro.conformance.oracle`) and the ``repro check``
harness (:mod:`~repro.conformance.check`).

See ``docs/conformance.md`` for the invariant catalogue and fault-knob
reference.
"""

from .check import CheckReport, check_batch, run_check
from .faults import FAULT_KINDS, FaultInjector, FaultSpec, fault_preset
from .invariants import (
    INVARIANTS,
    InvariantChecker,
    Violation,
    deadlock_witness,
    find_cycle,
    violation_trace,
    write_violation_trace,
)
from .oracle import DataflowRecorder, OracleReport, differential_check, replay_versions

__all__ = [
    "FAULT_KINDS",
    "INVARIANTS",
    "CheckReport",
    "DataflowRecorder",
    "FaultInjector",
    "FaultSpec",
    "InvariantChecker",
    "OracleReport",
    "Violation",
    "check_batch",
    "deadlock_witness",
    "differential_check",
    "fault_preset",
    "find_cycle",
    "replay_versions",
    "run_check",
    "violation_trace",
    "write_violation_trace",
]

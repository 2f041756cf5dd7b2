"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the interesting cases (most notably
:class:`NonExecutableScheduleError`, which corresponds to the ``infinity``
entries of Tables 2/3 of the paper: a schedule whose ``MIN_MEM`` exceeds
the per-processor memory capacity).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphError(ReproError):
    """Malformed task graph: unknown objects, duplicate tasks, cycles, ..."""


class CycleError(GraphError):
    """The dependence graph contains a cycle (it must be a DAG)."""

    def __init__(self, cycle_hint: str = ""):
        msg = "task dependence graph contains a cycle"
        if cycle_hint:
            msg += f" (involving {cycle_hint})"
        super().__init__(msg)


class GraphValueError(GraphError, ValueError):
    """A task or data object field holds a value no engine can run.

    A NaN, infinite or negative :attr:`~repro.graph.tasks.Task.weight`
    and a negative :attr:`~repro.graph.objects.DataObject.size` are
    rejected at construction; left in, a NaN weight schedules a
    simulator event in the past and an infinite one runs silently to an
    infinite parallel time.  Subclasses :class:`ValueError` too, so
    ``except ValueError`` keeps catching it.
    """

    def __init__(self, owner: str, field: str, value, want: str):
        self.owner = owner
        self.field = field
        self.value = value
        super().__init__(f"{owner}: {field} = {value!r}: must be {want}")


class DependenceError(GraphError):
    """The transformed graph is not dependence-complete.

    An anti or output dependence between two tasks is not subsumed by a
    true-dependence path, so executing the true-dependence graph alone
    could produce a wrong value (see paper section 2 and 3.4).
    """


class MachineSpecError(ReproError):
    """A :class:`~repro.machine.spec.MachineSpec` parameter is out of range.

    Negative or non-finite costs would schedule simulator events in the
    past, and a non-positive ``flop_rate`` has no task weights, so the
    spec rejects them at construction instead of either engine failing
    mid-run.
    """

    def __init__(self, field: str, value, want: str):
        self.field = field
        self.value = value
        super().__init__(f"MachineSpec.{field} = {value!r}: must be {want}")


class FaultSpecError(ReproError, ValueError):
    """A fault-injection knob holds a value no run can use.

    A negative or NaN factor or jitter of a
    :class:`~repro.conformance.faults.FaultSpec` would schedule a
    simulator event in the past, and an infinite one runs silently to an
    infinite parallel time, so the spec rejects them at construction;
    :func:`~repro.conformance.faults.fault_preset` raises it for an
    unknown fault kind.  Subclasses :class:`ValueError` too, so
    ``except ValueError`` keeps catching it.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


class CapacityError(ReproError, ValueError):
    """A memory capacity that is not a finite integer >= 0, or a NaN
    capacity fraction, named with its value (see
    :func:`repro.core.maps.check_capacity`); also a :class:`ValueError`.
    """

    def __init__(self, field: str, value, want: str = "a finite integer >= 0"):
        self.field = field
        self.value = value
        super().__init__(f"{field} = {value!r}: must be {want}")


class SchedulingError(ReproError):
    """A scheduling algorithm was invoked with inconsistent inputs."""


class PlacementError(ReproError):
    """Data placement / ownership constraints are violated.

    Under the owner-compute rule every task that modifies a data object
    must run on the object's owner processor (paper, Definition 1).
    """


class NonExecutableScheduleError(ReproError):
    """The schedule cannot run under the given memory capacity.

    Mirrors Definition 6 of the paper: ``MIN_MEM`` of the schedule is
    greater than the available per-processor memory.  Experiment tables
    print such configurations as ``inf``.
    """

    def __init__(self, processor: int, required: int, capacity: int):
        self.processor = processor
        self.required = required
        self.capacity = capacity
        super().__init__(
            f"schedule is non-executable: processor {processor} needs "
            f"{required} units of memory but only {capacity} are available"
        )


class MemoryError_(ReproError):
    """Raised by the simulated per-processor allocator on misuse.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`.
    """


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class DeadlockError(SimulationError):
    """The simulation stopped making progress before completion.

    Theorem 1 of the paper proves this cannot happen when the memory
    capacity admits the schedule; the simulator still detects the
    condition defensively and reports the set of blocked processors.
    """

    def __init__(self, blocked: dict[int, str], completed: int, total: int):
        self.blocked = dict(blocked)
        self.completed = completed
        self.total = total
        states = ", ".join(f"P{p}:{s}" for p, s in sorted(blocked.items()))
        super().__init__(
            f"no progress possible: {completed}/{total} tasks completed; "
            f"blocked processors: {states or 'none'}"
        )


class DataConsistencyError(SimulationError):
    """A processor observed a stale or wrong version of a data object."""


class InvariantViolationError(SimulationError):
    """An online protocol invariant failed during a checked execution.

    Raised by :class:`repro.conformance.InvariantChecker` in strict mode;
    in the default collecting mode violations are recorded instead.  The
    ``violation`` attribute carries the structured
    :class:`~repro.conformance.invariants.Violation` record.
    """

    def __init__(self, violation):
        self.violation = violation
        super().__init__(
            f"invariant {violation.invariant!r} violated at "
            f"t={violation.time:g} on P{violation.proc}: {violation.detail}"
        )

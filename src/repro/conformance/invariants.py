"""Online invariant checking: the paper's proofs as executable checks.

:class:`InvariantChecker` is an :class:`~repro.obs.instrument.Instrument`
that watches one simulated execution and asserts, per event, the
properties Theorem 1 and Definitions 1-6 of the paper promise:

``input-residency``
    No task enters EXE before every remote input object (and every
    synchronisation message) it needs is locally available — the REC
    state's contract (Figure 3(b)).
``landing-space``
    Arriving data lands in allocated volatile space (Definition 3: a
    put may only target space a MAP has allocated and notified).
``slot-overwrite``
    The unbuffered address slot of an ordered processor pair is never
    overwritten before the receiver consumed the previous package
    (Definition 4's one-package-in-flight rule).
``capacity``
    Allocated bytes never exceed the per-processor capacity
    (Definitions 5/6: the MAP plan keeps every prefix within budget).
``suspended-drain``
    Every put suspended for an unknown address is eventually dispatched
    (the END state drains the queue before termination).
``termination``
    Every processor reaches END/DONE — the run terminates (Theorem 1's
    deadlock freedom).

Violations are collected on :attr:`InvariantChecker.violations` (or
raised immediately with ``strict=True``).  The checker also keeps a
bounded window of recent protocol events so a violation can be exported
as a Perfetto-loadable trace of the failing neighbourhood
(:func:`violation_trace`).

Deadlocks surface as :class:`~repro.errors.DeadlockError` from the
simulator itself; :func:`deadlock_witness` turns the error's structured
wait-for edges into a human-readable report with the blocking cycle
(:func:`find_cycle`) when one exists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from ..core import dcg
from ..errors import DeadlockError, InvariantViolationError
from ..obs.chrome_trace import (
    CONFORMANCE_TRACE_SCHEMA,
    US,
    instant,
    process_name,
    thread_names,
    trace_document,
    write_trace,
)
from ..obs.instrument import Instrument

__all__ = [
    "INVARIANTS",
    "InvariantChecker",
    "Violation",
    "deadlock_witness",
    "find_cycle",
    "violation_trace",
    "write_violation_trace",
]

#: Invariant catalogue: name -> (paper anchor, one-line statement).
INVARIANTS = {
    "input-residency": (
        "Figure 3(b), REC",
        "no task enters EXE before all its remote inputs are resident",
    ),
    "landing-space": (
        "Definition 3",
        "arriving data lands in allocated volatile space",
    ),
    "slot-overwrite": (
        "Definition 4",
        "an address slot is never overwritten before consumption",
    ),
    "capacity": (
        "Definitions 5/6",
        "allocated volatile bytes never exceed the capacity",
    ),
    "suspended-drain": (
        "Figure 3(b), END",
        "every suspended put is eventually dispatched",
    ),
    "termination": (
        "Theorem 1",
        "the run terminates with every processor in END",
    ),
}

_EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One failed invariant check."""

    time: float
    proc: int
    #: Key into :data:`INVARIANTS`.
    invariant: str
    detail: str

    @property
    def rule(self) -> str:
        """Static rule code proving the same property (shared registry
        with :mod:`repro.analysis.diagnostics`)."""
        from ..analysis.diagnostics import INVARIANT_RULES

        return INVARIANT_RULES[self.invariant]

    def __str__(self) -> str:
        anchor, _stmt = INVARIANTS[self.invariant]
        return (
            f"[{self.invariant}] t={self.time:g} P{self.proc}: {self.detail} "
            f"({anchor})"
        )


class InvariantChecker(Instrument):
    """Online checker of the protocol invariants of one execution.

    Parameters
    ----------
    compiled:
        The :class:`~repro.machine.simulator.CompiledSchedule` being
        executed; its per-task requirement lists come from the
        reference's :func:`~repro.machine.reference.name_tables`, not
        from the compiled engine's lowering the checker judges.
    strict:
        Raise :class:`~repro.errors.InvariantViolationError` at the
        first violation instead of collecting.
    allow_early_arrival:
        Accept data arriving into unallocated space — legal in the
        steady-state iterative mode (``preknown_addresses=True``), a
        violation in the first-iteration protocol.
    window:
        Number of recent events retained for the failure-trace export.

    One checker instance observes one schedule but any number of runs
    (``on_run_begin`` resets all per-run state); ``violations`` holds
    the most recent run's findings.
    """

    def __init__(
        self,
        compiled,
        strict: bool = False,
        allow_early_arrival: bool = False,
        window: int = 256,
    ):
        from ..machine.reference import name_tables

        self.compiled = compiled
        self._needs = name_tables(compiled).needs
        self.strict = strict
        self.allow_early_arrival = allow_early_arrival
        self._window_size = window
        self.on_run_begin(0.0, compiled.num_procs, 0, True)

    # -- framing -------------------------------------------------------

    def on_run_begin(self, t, nprocs, capacity, memory_managed) -> None:
        self.nprocs = nprocs
        self.capacity = capacity
        self.memory_managed = memory_managed
        self.violations: list[Violation] = []
        #: per processor: resident received contents, obj -> units, so a
        #: free drops an object's contents in O(1).
        self._resident: list[dict] = [dict() for _ in range(nprocs)]
        #: per processor: objects with allocated space.
        self._allocated: list[set] = [set() for _ in range(nprocs)]
        #: per processor: sync unit -> arrival time.
        self._sync_at: list[dict] = [dict() for _ in range(nprocs)]
        #: (src, dst) -> send time of the not-yet-consumed package.
        self._slot_unread: dict[tuple[int, int], float] = {}
        self._suspended_out = [0] * nprocs
        self._ended: set[int] = set()
        self._finished = False
        self.window: deque = deque(maxlen=self._window_size)

    def on_run_end(self, parallel_time) -> None:
        self._finished = True
        for q in range(self.nprocs):
            if q not in self._ended:
                self._flag(parallel_time, q, "termination",
                           "run ended but processor never terminated")
            if self._suspended_out[q]:
                self._flag(
                    parallel_time, q, "suspended-drain",
                    f"{self._suspended_out[q]} suspended put(s) never "
                    "dispatched",
                )
        for (src, dst), t0 in sorted(self._slot_unread.items()):
            self._flag(
                parallel_time, src, "slot-overwrite",
                f"package to P{dst} sent at t={t0:g} never consumed",
            )

    # -- protocol events ----------------------------------------------

    def on_exe(self, t0, t1, proc, task) -> None:
        self._note(t0, proc, "EXE", task)
        resident = self._resident[proc]
        sync_at = self._sync_at[proc]
        for req in self._needs[task]:
            if req[0] == "data":
                if req[2] not in resident.get(req[1], ()):
                    self._flag(
                        t0, proc, "input-residency",
                        f"{task} entered EXE without {req[1]!r}@{req[2]!r}",
                    )
            else:
                ta = sync_at.get(req[1])
                if ta is None or ta > t0 + _EPS:
                    self._flag(
                        t0, proc, "input-residency",
                        f"{task} entered EXE without sync from {req[1]!r}",
                    )

    def on_data_arrive(self, t, proc, obj, unit, src) -> None:
        self._note(t, proc, "ARRIVE", f"{obj}@{unit} from P{src}")
        if (
            self.memory_managed
            and not self.allow_early_arrival
            and obj not in self._allocated[proc]
        ):
            self._flag(
                t, proc, "landing-space",
                f"{obj!r}@{unit!r} arrived with no allocated space",
            )
        self._resident[proc].setdefault(obj, set()).add(unit)

    def on_sync(self, t_send, t_arrive, proc, dest, unit) -> None:
        self._note(t_send, proc, "SYNC", f"{unit} -> P{dest}")
        prev = self._sync_at[dest].get(unit)
        if prev is None or t_arrive < prev:
            self._sync_at[dest][unit] = t_arrive

    # -- memory --------------------------------------------------------

    def on_alloc(self, t, proc, obj, size, used) -> None:
        self._note(t, proc, "ALLOC", f"{obj} ({size} B, used={used})")
        self._allocated[proc].add(obj)
        if used > self.capacity:
            self._flag(
                t, proc, "capacity",
                f"allocating {obj!r} brings usage to {used} > "
                f"capacity {self.capacity}",
            )

    def on_free(self, t, proc, obj, size, used) -> None:
        self._note(t, proc, "FREE", f"{obj} ({size} B, used={used})")
        self._allocated[proc].discard(obj)
        # The content dies with the space.
        self._resident[proc].pop(obj, None)

    def on_map(self, t, proc, position, frees, allocs) -> None:
        self._note(
            t, proc, "MAP",
            f"@pos{position} free={len(frees)} alloc={len(allocs)}",
        )

    # -- address packages ---------------------------------------------

    def on_package_send(self, t, proc, dest, naddrs) -> None:
        self._note(t, proc, "PKG-SEND", f"{naddrs} addr -> P{dest}")
        key = (proc, dest)
        prev = self._slot_unread.get(key)
        if prev is not None:
            self._flag(
                t, proc, "slot-overwrite",
                f"package to P{dest} overwrites the one sent at "
                f"t={prev:g} (never consumed)",
            )
        self._slot_unread[key] = t

    def on_package_read(self, t, proc, src, naddrs) -> None:
        self._note(t, proc, "PKG-READ", f"{naddrs} addr from P{src}")
        self._slot_unread.pop((src, proc), None)

    # -- sends ---------------------------------------------------------

    def on_put(self, t_send, t_arrive, proc, dest, obj, unit, nbytes) -> None:
        self._note(t_send, proc, "PUT", f"{obj}@{unit} -> P{dest}")

    def on_put_suspend(self, t, proc, dest, obj, unit, qlen) -> None:
        self._note(t, proc, "SUSPEND", f"{obj}@{unit} -> P{dest} (q={qlen})")
        self._suspended_out[proc] += 1

    def on_put_drain(self, t, proc, dest, obj, qlen) -> None:
        self._note(t, proc, "DRAIN", f"{obj} -> P{dest} (q={qlen})")
        self._suspended_out[proc] -= 1
        if self._suspended_out[proc] < 0:
            self._flag(
                t, proc, "suspended-drain",
                "more puts drained than were ever suspended",
            )

    def on_proc_end(self, t, proc) -> None:
        self._note(t, proc, "END", "terminated")
        self._ended.add(proc)
        if self._suspended_out[proc]:
            self._flag(
                t, proc, "suspended-drain",
                f"terminated with {self._suspended_out[proc]} suspended "
                "put(s) still queued",
            )

    # -- reporting -----------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> str:
        """Human-readable summary of the run's violations."""
        if not self.violations:
            return "all invariants held"
        lines = [f"{len(self.violations)} invariant violation(s):"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)

    def _note(self, t, proc, kind, detail) -> None:
        self.window.append((t, proc, kind, detail))

    def _flag(self, t, proc, invariant, detail) -> None:
        v = Violation(time=t, proc=proc, invariant=invariant, detail=detail)
        self.violations.append(v)
        self.window.append((t, proc, "VIOLATION", str(v)))
        if self.strict:
            raise InvariantViolationError(v)


# ---------------------------------------------------------------------
# the failing window as a Chrome trace
# ---------------------------------------------------------------------


def violation_trace(checker, label: str = "conformance window") -> dict:
    """Trace-event document of a checker's recent-event window.

    When an invariant fails mid-run there may be no result to feed
    :func:`~repro.obs.chrome_trace.chrome_trace` (strict mode raises out
    of ``run()``, a deadlock aborts it), so the window is exported on
    its own: per-processor tracks where ordinary protocol events become
    thread-scoped instants and violations process-scoped instants
    (rendered prominently by Perfetto) carrying the full violation text
    in ``args``.
    """
    events = [
        process_name(0, f"repro conformance ({label})"),
        *thread_names(checker.nprocs),
    ]
    for t, proc, kind, detail in checker.window:
        bad = kind == "VIOLATION"
        events.append(instant(
            kind, "violation" if bad else "protocol", 0, proc, t * US,
            {"detail": detail}, scope="p" if bad else "t",
        ))
    return trace_document(
        events,
        CONFORMANCE_TRACE_SCHEMA,
        violations=len(checker.violations),
        window_events=len(checker.window),
    )


def write_violation_trace(
    checker, path: Optional[str] = None, label: str = "conformance window"
) -> str:
    """Serialise :func:`violation_trace`; optionally write to ``path``."""
    return write_trace(violation_trace(checker, label=label), path)


# ---------------------------------------------------------------------
# deadlock witnesses
# ---------------------------------------------------------------------

def find_cycle(wait_for: Mapping[int, Iterable[int]]) -> Optional[list[int]]:
    """A cycle in the wait-for graph, as ``[p0, p1, ..., p0]``;
    ``None`` when the graph is acyclic.  Processors are searched in
    the mapping's order, each one's waits in ascending order."""
    return dcg.find_cycle({p: sorted(set(deps)) for p, deps in wait_for.items()})


def deadlock_witness(err: DeadlockError) -> str:
    """Render a :class:`~repro.errors.DeadlockError` as a witness report:
    blocked states, per-processor diagnosis and — when the simulator
    attached structured wait-for edges — the blocking cycle."""
    lines = [
        f"DEADLOCK: {err.completed}/{err.total} tasks completed; "
        f"blocked: "
        + ", ".join(f"P{p}:{s}" for p, s in sorted(err.blocked.items()))
    ]
    details = getattr(err, "details", None) or {}
    for q in sorted(details):
        lines.append(f"  P{q}: {details[q]}")
    wait_for = getattr(err, "wait_for", None)
    if wait_for:
        cycle = find_cycle(wait_for)
        lines += dcg.wait_for_lines(wait_for, cycle)
        if not cycle:
            lines.append(
                "  no wait-for cycle: progress is blocked by lost or "
                "never-produced events (e.g. an overwritten address slot)"
            )
    return "\n".join(lines)

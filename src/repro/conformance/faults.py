"""Deterministic, seedable fault injection for the simulator.

The conformance harness stresses the five-state protocol in exactly the
regimes where limited-memory schedulers break: slow or jittery
communication (puts arrive late and out of their usual interleaving),
lazy consumption of address packages (the unbuffered slot of each
ordered processor pair stays busy longer, so MAPs block), asymmetric
processor speeds (receivers fall behind their senders) and memory
tightened down to ``MIN_MEM`` (maximum MAP pressure).  Theorem 1 claims
the protocol stays deadlock-free and data-consistent under *any* such
timing — the invariant checker verifies that claim on faulted runs.

A :class:`FaultSpec` is a frozen description of the perturbation; the
simulator asks it for a run-local :class:`FaultInjector` at the start of
each :meth:`~repro.machine.simulator.Simulator.run`, so repeated runs of
one simulator are bit-identical and a spec can be shared across
simulators.  All randomness comes from one ``random.Random(seed)``
consumed in event order — the simulation itself is deterministic, so a
(spec, schedule, capacity) triple always produces the same execution.

One knob is deliberately protocol-*breaking*: ``overwrite_slots`` makes
a MAP ignore a busy address slot and overwrite the unconsumed package —
the exact bug Definition 4's one-package-in-flight rule prevents.  It
exists so the negative tests can prove the checker actually detects
slot overwrites (and the deadlocks they cause) rather than vacuously
passing.

``capacity_fraction`` is interpreted by the check harness, not the
simulator: it positions the capacity between ``MIN_MEM`` (0.0) and
``TOT`` (1.0) before the run starts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from ..errors import FaultSpecError

__all__ = ["FAULT_KINDS", "FaultInjector", "FaultSpec", "fault_preset"]


@dataclass(frozen=True)
class FaultSpec:
    """Immutable description of an injected perturbation.

    All sim-level knobs default to the identity; a spec whose sim-level
    knobs are all identity reports ``active == False`` and the simulator
    skips injection entirely (the disabled path stays at engine speed —
    ``benchmarks/bench_cost_budgets.py`` holds the ratio).
    Every factor and jitter must be finite and non-negative
    (:class:`~repro.errors.FaultSpecError` otherwise).
    """

    #: Seed of the run-local RNG behind the jitter knobs.
    seed: int = 0
    #: Multiplies the network time of every data put (>= 1 inflates).
    put_latency_factor: float = 1.0
    #: Extra put delay, uniform in ``[0, put_jitter) x`` the put's own
    #: network time (seeded).
    put_jitter: float = 0.0
    #: Multiplies the delay between RA reading an address package and
    #: the sender's slot becoming free (lazy consumption).
    package_consume_factor: float = 1.0
    #: Extra slot-free delay, uniform in ``[0, jitter) x put_latency``.
    package_consume_jitter: float = 0.0
    #: Multiplies task weights (per-processor slowdown).
    slowdown: float = 1.0
    #: Processors the slowdown applies to (``None`` = all).
    slow_procs: Optional[tuple[int, ...]] = None
    #: Protocol-BREAKING: MAPs overwrite busy address slots instead of
    #: blocking.  Exists only to exercise the invariant checker.
    overwrite_slots: bool = False
    #: Harness-level capacity tightening: 0.0 = ``MIN_MEM``, 1.0 =
    #: ``TOT`` (``None`` leaves the caller's capacity untouched).
    capacity_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("put_latency_factor", "put_jitter",
                     "package_consume_factor", "package_consume_jitter",
                     "slowdown"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise FaultSpecError(
                    name, f"FaultSpec.{name} = {v!r}: must be finite "
                    "and >= 0")

    @property
    def active(self) -> bool:
        """True when any sim-level knob differs from the identity."""
        return (
            self.put_latency_factor != 1.0
            or self.put_jitter != 0.0
            or self.package_consume_factor != 1.0
            or self.package_consume_jitter != 0.0
            or self.slowdown != 1.0
            or self.overwrite_slots
        )

    def injector(self) -> "FaultInjector":
        """A fresh run-local injector (one per ``Simulator.run``)."""
        return FaultInjector(self)


class FaultInjector:
    """Run-local fault state: the RNG stream plus the spec's knobs.

    The simulator calls the ``*_delay`` methods with the unperturbed
    base time of the action, so all knobs scale with the machine spec
    instead of assuming unit costs.
    """

    __slots__ = (
        "_rng", "_put_factor", "_put_jitter", "_consume_factor",
        "_consume_jitter", "_slowdown", "_slow_procs", "overwrite_slots",
    )

    def __init__(self, spec: FaultSpec):
        self._rng = random.Random(spec.seed)
        self._put_factor = spec.put_latency_factor
        self._put_jitter = spec.put_jitter
        self._consume_factor = spec.package_consume_factor
        self._consume_jitter = spec.package_consume_jitter
        self._slowdown = spec.slowdown
        self._slow_procs = (
            None if spec.slow_procs is None else frozenset(spec.slow_procs)
        )
        self.overwrite_slots = spec.overwrite_slots

    def put_delay(self, src: int, dest: int, base: float) -> float:
        """Extra network time of one data put whose unperturbed network
        time is ``base``."""
        extra = base * (self._put_factor - 1.0)
        if self._put_jitter:
            extra += self._rng.random() * self._put_jitter * base
        return extra

    def consume_delay(self, proc: int, src: int, base: float) -> float:
        """Extra delay before the ``src -> proc`` slot frees after RA
        consumed the package (``base`` is the unperturbed latency)."""
        extra = base * (self._consume_factor - 1.0)
        if self._consume_jitter:
            extra += self._rng.random() * self._consume_jitter * base
        return extra

    def exe_factor(self, proc: int) -> float:
        """Task-weight multiplier of ``proc``."""
        if self._slow_procs is None or proc in self._slow_procs:
            return self._slowdown
        return 1.0


#: Named presets of the fault matrix (see ``docs/conformance.md``).
FAULT_KINDS = ("delay", "jitter", "consume", "slow", "tighten", "overwrite")


def fault_preset(kind: str, seed: int = 0) -> FaultSpec:
    """A canonical :class:`FaultSpec` per fault kind.

    ``delay``     puts take 8x their network time;
    ``jitter``    puts gain up to 4x extra seeded latency;
    ``consume``   address slots free 10x late, with jitter;
    ``slow``      processor 0 computes at one-third speed;
    ``tighten``   capacity pinned to ``MIN_MEM`` (harness-level);
    ``overwrite`` protocol-breaking slot overwrite (negative testing).
    """
    if kind == "delay":
        return FaultSpec(seed=seed, put_latency_factor=8.0)
    if kind == "jitter":
        return FaultSpec(seed=seed, put_jitter=4.0)
    if kind == "consume":
        return FaultSpec(
            seed=seed, package_consume_factor=10.0, package_consume_jitter=4.0
        )
    if kind == "slow":
        return FaultSpec(seed=seed, slowdown=3.0, slow_procs=(0,))
    if kind == "tighten":
        return FaultSpec(seed=seed, capacity_fraction=0.0)
    if kind == "overwrite":
        return FaultSpec(
            seed=seed,
            overwrite_slots=True,
            package_consume_factor=25.0,
            package_consume_jitter=8.0,
        )
    raise FaultSpecError(
        "kind", f"unknown fault kind {kind!r}; known: {FAULT_KINDS}")

"""Volatile-object liveness and memory requirements (Definitions 4-6).

Given a static schedule, this module computes for every processor:

* the life span of every volatile object along the processor's task
  order (Definition 4: a volatile object is *alive* at a position if it
  is accessed there, or has been accessed before and will be accessed
  after; otherwise it is *dead/obsolete*);
* ``MEM_REQ(T_w, P_x)`` — permanent space plus alive volatile space at
  each task (Definition 5);
* ``MIN_MEM`` — the minimum capacity under which the schedule is
  executable (Definitions 5-6);
* ``TOT`` — the space needed *without* any recycling (all volatile
  objects held simultaneously), the 100% reference of section 5.1;
* the dead map used by the MAP planner: which volatile objects die right
  after each position.

The dead-point information "can be statically calculated by performing a
data flow analysis on a given DAG with a complexity proportional to the
size of the graph" (section 3.3) — here a single walk over each
processor's order, O(total accesses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, TypeVar

from ..errors import NonExecutableScheduleError, SchedulingError
from .index import graph_index
from .schedule import Schedule, number_schedule

T = TypeVar("T")


@dataclass
class ProcessorMemoryProfile:
    """Memory behaviour of one processor under a schedule."""

    proc: int
    perm_bytes: int
    #: volatile object -> (first position, last position) in the order,
    #: listed in first-use order (the order MAPs allocate them).
    span: dict[str, tuple[int, int]]
    #: ``mem_req[i]`` = MEM_REQ at the i-th task of the order.
    mem_req: list[int]
    #: total volatile bytes (no recycling).
    vola_bytes: int

    @property
    def dead_after(self) -> dict[int, list[str]]:
        """Position -> volatile objects whose last access is that
        position, sorted by name (they may be freed at any later MAP).
        Derived from :attr:`span` on each read."""
        out: dict[int, list[str]] = {}
        for o, (_f, last) in self.span.items():
            out.setdefault(last, []).append(o)
        for objs in out.values():
            objs.sort()
        return out

    @property
    def min_mem(self) -> int:
        """Peak MEM_REQ on this processor."""
        return max(self.mem_req, default=self.perm_bytes)

    @property
    def tot(self) -> int:
        """Space with no recycling: permanent + all volatile objects."""
        return self.perm_bytes + self.vola_bytes


@dataclass
class MemoryProfile:
    """Memory behaviour of a whole schedule (all processors)."""

    schedule: Schedule
    procs: list[ProcessorMemoryProfile]
    #: the schedule's orders numbered (:func:`~repro.core.schedule.number_orders`)
    tid_at: list[int]
    proc_start: list[int]
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def memo(self, key, build: Callable[[], T]) -> T:
        """``build()`` once per key: capacity-independent tables derived
        from this profile or its schedule (the MAP planner's, see
        :func:`repro.core.maps.plan_maps`, and the protocol pass's order
        check).  Treat results as read-only."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    @property
    def min_mem(self) -> int:
        """Definition 5: ``MIN_MEM = max_P max_T MEM_REQ(T, P)``."""
        return max((p.min_mem for p in self.procs), default=0)

    @property
    def tot(self) -> int:
        """The 100% memory reference of section 5.1 (max over procs of
        permanent + volatile space with no recycling)."""
        return max((p.tot for p in self.procs), default=0)

    @property
    def s1(self) -> int:
        """Sequential space requirement (sum of all object sizes)."""
        return self.schedule.graph.total_data()

    def executable_under(self, capacity: int) -> bool:
        """Definition 6: the schedule runs iff ``capacity >= MIN_MEM``."""
        return capacity >= self.min_mem

    def require_executable(self, capacity: int) -> None:
        for p in self.procs:
            if p.min_mem > capacity:
                raise NonExecutableScheduleError(p.proc, p.min_mem, capacity)

    # -- evaluation metrics (Table 1, Figure 7) -------------------------

    def per_proc_usage(self, recycling: bool = True) -> list[int]:
        """Per-processor space requirement: peak with recycling
        (``MIN_MEM`` style) or total without."""
        return [p.min_mem if recycling else p.tot for p in self.procs]

    def usage_ratio_vs_ideal(self, recycling: bool = False, reduce: str = "mean") -> float:
        """Table 1's metric: per-processor memory usage over ``S1/p``.

        The paper reports the *average* over processors of space used
        (permanent + volatile, no recycling in the original RAPID)
        divided by the lower bound ``S1/p``.
        """
        usage = self.per_proc_usage(recycling)
        ideal = self.s1 / max(1, self.schedule.num_procs)
        if ideal <= 0:
            return 1.0
        vals = [u / ideal for u in usage]
        if reduce == "mean":
            return sum(vals) / len(vals)
        if reduce == "max":
            return max(vals)
        raise ValueError(f"unknown reduce {reduce!r}")

    def memory_scalability(self, recycling: bool = True) -> float:
        """Figure 7's metric: ``S1 / S_p^A`` where ``S_p^A`` is the peak
        per-processor space requirement of the schedule.  Perfect
        scalability equals ``p``."""
        sp = max(self.per_proc_usage(recycling), default=0)
        return self.s1 / sp if sp > 0 else float("inf")


def analyze_memory(schedule: Schedule) -> MemoryProfile:
    """Compute the full memory profile of a schedule.

    Single pass per processor over its task order; positions are indices
    into ``schedule.orders[p]``.  The order-independent part — PERM/VOLA
    sets, footprints and each task's volatile object ids — comes from
    the mapping's shared :class:`~repro.core.index.MappingIndex`.
    MEM_REQ is the prefix sum of a difference array: an object's size
    enters at its first position and leaves after its last.  Raises
    :class:`~repro.errors.SchedulingError` for a malformed schedule
    (:func:`~repro.core.schedule.number_schedule`); the profile keeps
    the numbering.
    """
    gi, mi, tid_at, proc_start = number_schedule(schedule)
    onames, oid_size, rows = gi.object_names, gi.oid_size, mi.vola_oids
    procs: list[ProcessorMemoryProfile] = []
    for p, (lo, hi) in enumerate(zip(proc_start, proc_start[1:])):
        first: dict[int, int] = {}  # in first-use order
        last: dict[int, int] = {}
        for pos, i in enumerate(tid_at[lo:hi]):
            for o in rows[i]:
                if o not in first:
                    first[o] = pos
                last[o] = pos
        diff = [0] * (hi - lo + 1)
        diff[0] = mi.perm_bytes[p]
        for o, f in first.items():
            size = oid_size[o]
            diff[f] += size
            diff[last[o] + 1] -= size
        mem_req = list(accumulate(diff))
        mem_req.pop()
        procs.append(
            ProcessorMemoryProfile(
                proc=p,
                perm_bytes=mi.perm_bytes[p],
                span={onames[o]: (f, last[o]) for o, f in first.items()},
                mem_req=mem_req,
                vola_bytes=mi.vola_bytes[p],
            )
        )
    return MemoryProfile(schedule, procs, tid_at, proc_start)


def min_mem(schedule: Schedule) -> int:
    """Convenience wrapper returning Definition 5's ``MIN_MEM``."""
    return analyze_memory(schedule).min_mem


def mem_req_of_task(profile: MemoryProfile, task: str) -> int:
    """``MEM_REQ(T, P)`` for a single task (Definition 5); an unknown
    task raises :class:`~repro.errors.SchedulingError`."""
    i = graph_index(profile.schedule.graph).tid.get(task)
    if i is None:
        raise SchedulingError(f"schedule has no task {task!r}")
    p = profile.schedule.assignment[task]
    return profile.procs[p].mem_req[profile.tid_at.index(i) - profile.proc_start[p]]

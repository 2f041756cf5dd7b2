"""Array-compiled execution engine, the default engine of :class:`Simulator`.

This module lowers a :class:`~repro.machine.simulator.CompiledSchedule`
— tasks, MAP points, address slots and the five-state protocol of
Definitions 3–6 — into int-indexed list tables and executes them with
a flat event queue, replacing the per-event Python objects of the
interpreted engine with integer codes and scalar state vectors.

Table levels
------------

RAPID's inspector runs once and its executor many times (PAPER.md,
Figure 1).  The tables are split by what they depend on, so each is
built once at its level and shared below it:

**Once per mapping** (:class:`MappingLowering`, memoised on the
:class:`~repro.core.index.MappingIndex` of the placement and
assignment, so RCP, MPO and DTS at one P share one copy).  Tasks are
numbered by their :class:`~repro.core.index.GraphIndex` id (``tid``,
program order); objects by ``oid`` (sorted names); a producer unit by
the tid of its first task.  Task names, object names and object sizes
stay on that index (``ml.gi``: ``names``, ``object_names``,
``oid_size``); the lowering copies none of them.  The lowering reads
the index's edge table (``edge_u``/``edge_v``, the ``edge_ptr``/
``edge_oid`` CSR of each edge's sorted oids) in bulk: it expands the
edges by their objects, masks the cross-processor entries and numbers
every key by first appearance in that order (``np.unique``, then the
uniques ranked by first index), so the numbering is the one a pass over
the edges would give.  Each CSR below is a stable ``argsort`` of its
row ids with ``bincount`` prefix sums, and every table is handed on as
a plain list.

``mk``
    a *data message key* ``(dest, object, unit)``; carries a CSR waiter
    list (``wait_ptr``/``wait_tid``), an initial stale-copy counter
    (``mk_need0``), its sender ``mk_src`` and a group id ``grp_of``
    linking the versions of one ``(dest, object)`` pair for the
    consistency checks.
``grp``
    a ``(dest, object)`` pair, id ``grp_at[dest * num_objects + oid]``
    (``-1``: no data), sent by the object's owner ``grp_src``: the
    *address-knowledge key*, a flat byte vector the sender consults
    through ``od_grp``, set only when ``grp_src`` reads the object in
    a package from ``dest``.
``sk``
    a *sync key* ``(task, dest)`` with its own waiter CSR.
``od`` / ``os`` / ``cons``
    outgoing data / outgoing sync / consumed message keys, CSR rows per
    tid (``od_ptr`` etc.).  A unit's data messages sit in the row of
    its first task.  Per-spec network times (:meth:`MappingLowering
    .costs`) are memoised here too.

**Once per schedule** (:class:`LoweredSchedule`, memoised on the
``CompiledSchedule``).  A *position* ``pos`` numbers the flattened
processor orders; ``proc_start`` maps a processor to its contiguous
position range and ``tid_at[pos]`` to the task.  The schedule adds
the order-contiguous ``weight`` list, the commuting-group triggers
(``od_row``: the tid row whose data messages the task at a tid sends),
the dispatch-version flags ``od_ok0`` / ``od_ow`` and ``run_end``.  A
task is *noisy* when it has remote inputs, outgoing messages or
consumptions, else *silent*; a maximal run of silent tasks executes in
one kernel call, and ``run_end[pos]`` is the end of the run starting
at ``pos`` (``-1`` at a noisy task).  A ``LoweredSchedule`` holds no
mapping table: readers name ``lo.mapping`` (``lo.mapping.od_ptr``),
and a diagnostic that needs the task at a position reads
``gi.names[lo.tid_at[pos]]``.
The MAP planner's capacity-independent tables are memoised per
schedule as well, on the :class:`~repro.core.liveness.MemoryProfile`.

**Per capacity**: the MAP plan itself, whose
:class:`~repro.core.maps.MapTables` (positions, oids) the run reads as
they are; their size scales with the MAPs, not the tasks.  A MAP's cost
comes from its CSR counts, and a freed or notified object's group from
``grp_at``.  Capacity, memory mode, the spec's costs and the per-spec
message costs come from the simulator, the spec and
:meth:`MappingLowering.costs`.  The run loop walks positions and cuts a
silent run at ``min(run_end[pos], next MAP position)``.

Events are 3-tuples ``(time, seq, code)`` where ``code`` packs
``kind << 44 | arg``.  The run is one flat event loop.  An event wakes
at most one processor (``TASK_DONE`` its own, ``DATA``/``SYNC`` the
destination, ``ADDR`` the package's destination, ``SLOT_FREE`` the
sender), so the loop body applies the event and then runs one inline
advance block for that processor.  Only the rarer steps are calls:
reading address packages (``ra``), a send (``dispatch``, ``try_send``),
a MAP (``exec_map``) and a silent run (``_seg_until_hot``).

Exactness contract
------------------

The interpreted :func:`repro.machine.reference.run_interpreted` is the
differential oracle; this engine must agree with it *bit-for-bit*
(finish times, stats, peaks, violation verdicts compared with ``==``).
Three rules make that possible:

* **Identical float expressions.**  Every time value is produced by the
  same sequential float64 operation sequence as the interpreted engine
  (``start + cost``, ``max(avail, t)``, per-spec cost formulas copied
  verbatim); there is no vectorised accumulation in the run loop.
* **Push-only bootstrap.**  The interpreted bootstrap advances every
  processor before the first pop, so each processor's *first* task
  completion must enter the heap to keep the relative ``(time, seq)``
  order of later same-timestamp events identical.  Here the bootstrap
  is ``P + 1`` events queued at time 0 with seqs ``0..P``, ahead of
  every push, that run the same advance block; while a processor boots
  the queue head is the next of them, at time 0, so no completion is
  strictly earlier and every one is pushed.  The last only closes the
  bootstrap.
* **Strict inline rule.**  A task finishing at ``f`` *strictly* below
  the earliest queued event is the next event, without a heap
  round-trip: causality (all pushes happen at or after the current
  event time, asserted at push) guarantees the interpreted engine
  would pop exactly that completion next, with no intervening
  seq-bearing pushes.  Ties (``f >= heap-min``) always go through the
  heap.

A silent run applies the same rule task by task: one checked kernel,
``_seg_until_hot`` over ``weight``, executes tasks until the first
finish at or past the horizon.  ``*_hot`` functions are kept free of
per-event Python allocation by ``tools/lint_rules.py``
(``compiled-hot-alloc``).

Static dispatch-version flags replace the interpreted engine's dynamic
``current_version`` dict: under the owner-compute rule every writer of
an object runs on the dispatching processor, so an order scan computes
each message's version validity at trigger time (``od_ok0``) plus the
first later overwrite position (``od_ow``) that could invalidate a
*suspended* send drained after more local tasks completed.  A
``CompiledSchedule`` only exists for owner-compute assignments, and task
weights are finite and non-negative by construction
(:class:`~repro.errors.GraphValueError`).

Observed runs
-------------

The engine drives the :class:`~repro.obs.instrument.Instrument` hooks
itself, with the interpreted oracle's exact call sequence and
arguments, behind one ``observing`` boolean hoisted out of the loop
(one local-bool test per hook site when nothing observes).  While an
instrument is attached, silent runs are stepped task by task through
the noisy-task path — each task needs its ``on_exe`` and ``SND`` mark —
so the ``*_hot`` kernels stay hook-free, and a processor left in REC is
woken on every arrival, as in the oracle, for its ``REC`` mark.  The
hook arguments come from per-mapping tables (``mk_src``: the sender of
each data message) and the plan's tables, named through the index
(``on_map``'s free and allocation lists, in table order).

Engine selection
----------------

``Simulator.run`` runs this engine unless ``engine="interpreted"``
asks for the oracle; observed, fault-injected and caller-``plan`` runs
included (a caller's plan was checked when the simulator was built).  An active
:class:`~repro.conformance.faults.FaultSpec` perturbs the oracle's four
sites behind one run-local ``fi`` hoisted like ``observing``: put delay
(arrival), consume delay (slot free in RA), slot overwrite (package
send) and slowdown (a run-local scaled copy of ``weight``).
:class:`~repro.machine.spec.MachineSpec` and ``FaultSpec`` reject
negative or non-finite costs and knobs before either engine runs.

Implementation note: every table is one plain Python list, because
scalar list indexing is several times faster than per-element array
indexing under CPython; numpy builds the per-mapping tables and is
never touched by the run loop.  The run loop and the IR verifier
(:mod:`repro.analysis.irverify`) read the same list objects, each from
the level that owns it, so a verified table is the table that runs.
"""

from __future__ import annotations

import heapq
import os
from itertools import chain, count
from operator import itemgetter
from time import perf_counter
from typing import NamedTuple, Optional

import numpy as np

from ..core.index import graph_index
from ..core.maps import MapTables
from ..errors import (
    DataConsistencyError,
    DeadlockError,
    SimulationError,
)
from .spec import MachineSpec

__all__ = [
    "LoweredSchedule",
    "MappingLowering",
    "get_exec_plan",
    "lower_schedule",
    "run_compiled",
]

# Processor states (ints; same meaning as simulator.ProcState).
_REC, _EXE, _SND, _MAP, _END, _DONE = 0, 1, 2, 3, 4, 5
_STATE_NAMES = ("REC", "EXE", "SND", "MAP", "END", "DONE")

# Event codes: code = kind << 44 | arg (args are entity ids < 2**44).
_SHIFT = 44
_ARG_MASK = (1 << _SHIFT) - 1
_TASK_BASE = 0 << _SHIFT  # arg = processor
_DATA_BASE = 1 << _SHIFT  # arg = mk
_SYNC_BASE = 2 << _SHIFT  # arg = sk
_ADDR_BASE = 3 << _SHIFT  # arg = pkg
_SLOT_BASE = 4 << _SHIFT  # arg = src * P + dst
_BOOT_BASE = 5 << _SHIFT  # arg = processor (P: the bootstrap is over)

_INF = float("inf")
_NO_OVERWRITE = 1 << 60  # od_ow sentinel: no later local overwrite


class _GraphIds(NamedTuple):
    """Graph-only id tables (memoised on the :class:`GraphIndex`).  The
    edges are the index's own edge table (``gi.edge_u`` etc.) and each
    task's written objects its ``write_oids``."""

    #: tid -> its producer unit (the tid of the unit's first task)
    unit_of: list[int]
    #: unit -> its name (commuting-group key or task name), by unit tid
    unit_name: list[str]
    #: multi-task commuting units: first tid -> member tids
    groups: dict[int, list[int]]


def _graph_ids(g, gi) -> _GraphIds:
    unit_of = list(range(len(gi.names)))
    unit_name = list(gi.names)
    first: dict[str, int] = {}
    members: dict[int, list[int]] = {}
    for i, t in enumerate(g.tasks()):
        if t.commute is not None:
            u = first.setdefault(t.commute, i)
            unit_of[i] = u
            unit_name[u] = t.commute
            members.setdefault(u, []).append(i)
    groups = {u: ms for u, ms in members.items() if len(ms) > 1}
    return _GraphIds(unit_of, unit_name, groups)


class MappingLowering:
    """Order-independent list tables of one mapping (tid space).

    Built once per :class:`~repro.core.index.MappingIndex` by
    :func:`lower_schedule`; see the module docstring for the id spaces.
    """

    __slots__ = (
        "num_procs", "num_tasks", "num_objects", "num_mk", "num_sk",
        "num_grp",
        "pending0", "noisy",
        "od_ptr", "od_mk", "od_grp", "od_dest", "od_oid", "od_nbytes",
        "od_unit", "od_uname",
        "os_ptr", "os_sk", "cons_ptr", "cons_mk",
        "mk_dest", "mk_oid", "mk_need0", "mk_uname", "mk_src",
        "wait_ptr", "wait_tid", "grp_of", "grp_ptr", "grp_mk", "grp_at",
        "grp_src",
        "sk_src", "sk_dest", "swait_ptr", "swait_tid",
        # the GraphIndex the ids number (task and object names, sizes)
        "gi", "ids", "_costs",
    )

    def costs(self, spec: MachineSpec) -> tuple[list[float], list[float]]:
        """Per-message ``(network time, NIC serialisation time)`` under
        ``spec``, with the interpreted engine's exact expressions."""
        c = self._costs.get(spec)
        if c is None:
            c = self._costs[spec] = (
                [spec.message_time(nb) for nb in self.od_nbytes],
                [nb * spec.byte_time for nb in self.od_nbytes],
            )
        return c


def _first_seen(keys):
    """Number ``keys`` by first appearance: ``(ids, first)``, where
    ``ids[j]`` is the number of ``keys[j]`` and ``first[k]`` the
    position of the first entry numbered ``k``."""
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    return rank[inv], first[by_first]


def _rows(row_of, nrows: int):
    """CSR over rows ``0..nrows-1`` of the entries ``0..len-1``, entry
    ``j`` in row ``row_of[j]``, each row in entry order: ``(ptr,
    entries)`` arrays."""
    ptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of, minlength=nrows), out=ptr[1:])
    return ptr, np.argsort(row_of, kind="stable")


def _lower_mapping(g, gi, mi) -> MappingLowering:
    """Messages, receiver requirements and waiters of every
    cross-processor edge, numbered in bulk over the index's edge table.

    Every key is numbered by first appearance in edge order (each data
    edge's objects in sorted-oid order), which is the order the
    interpreted engine meets them in."""
    ids = gi.memo("compiled-ids", lambda: _graph_ids(g, gi))
    nprocs = mi.num_procs
    n = len(gi.names)
    nobj = len(gi.object_names)
    # Packed int64 keys: (dest * nobj + oid) * n + unit, and below
    # mk * n + reader.
    if nprocs * nobj * max(n, nprocs) >= 2 ** 63:
        raise SimulationError("graph too large for int64 message keys")
    proc = np.array(mi.proc, dtype=np.int64)
    unit_of = np.array(ids.unit_of, dtype=np.int64)
    eu, ev, ptr = gi.edge_u, gi.edge_v, gi.edge_ptr
    count = np.diff(ptr)
    cross = proc[eu] != proc[ev]
    data = cross & (count > 0)
    sync = cross & (count == 0)
    # Data entries: one per (cross-processor data edge, object).  The
    # payload of a commuting group is its accumulated result: one
    # message per (object, group, destination), issued when the
    # group's last local task finishes.
    ent = np.repeat(data, count)
    ent_u = np.repeat(eu, count)[ent]
    ent_v = np.repeat(ev, count)[ent]
    ent_o = gi.edge_oid[ent]
    ent_dest = proc[ent_v]
    ent_unit = unit_of[ent_u]
    ent_mk, first = _first_seen((ent_dest * nobj + ent_o) * n + ent_unit)
    num_mk = len(first)
    if num_mk * n >= 2 ** 63:
        raise SimulationError("graph too large for int64 waiter keys")
    mk_dest, mk_oid, mk_unit = ent_dest[first], ent_o[first], ent_unit[first]
    # Members of a commuting unit may share readers: each (mk, reader)
    # waits once (a single-task unit reaches each pair once anyway).
    waits = np.sort(np.unique(ent_mk * n + ent_v, return_index=True)[1])
    wait_v = ent_v[waits]
    # Synchronisation edges are member-specific (they encode a
    # transformed anti/output dependence from one task).
    sync_u, sync_v = eu[sync], ev[sync]
    sync_dest = proc[sync_v]
    sync_sk, sfirst = _first_seen(sync_u * nprocs + sync_dest)
    sk_src, sk_dest = sync_u[sfirst], sync_dest[sfirst]
    # Cross-check against the GraphIndex predecessor rows, which come
    # from the predecessor map, not from the edge table: every
    # cross-processor edge must have been lowered to a data message or
    # a sync waiter.
    lowered = int(np.count_nonzero(data)) + len(sync_sk)
    degree = gi.in_degree
    pred_u = np.fromiter(map(itemgetter(0), chain.from_iterable(gi.pred)),
                         np.int64, sum(degree))
    pred_v = np.repeat(np.arange(n), degree)
    cross_rows = int(np.count_nonzero(proc[pred_u] != proc[pred_v]))
    if cross_rows != lowered:
        raise SimulationError(
            f"lowering holds {lowered} of the graph's {cross_rows} "
            "cross-processor edges"
        )

    # The engine reads plain lists.  They take their ints from one pool,
    # so equal ids and counts share one object across the tables.
    pool = np.arange(max(n, nobj, nprocs, len(ent_mk) + len(sync_v)) + 1,
                     dtype=object)

    def plain(a) -> list:
        return pool[a].tolist()

    unit_name = ids.unit_name
    ml = MappingLowering()
    ml.gi, ml.ids = gi, ids
    ml.num_procs = nprocs
    ml.num_tasks = n
    ml.num_objects = nobj
    pending0 = (np.bincount(wait_v, minlength=n)
                + np.bincount(sync_v, minlength=n))
    ml.pending0 = plain(pending0)
    ml.num_mk, ml.num_sk = num_mk, len(sfirst)
    ml.mk_dest, ml.mk_oid = plain(mk_dest), plain(mk_oid)
    ml.mk_need0 = plain(np.bincount(ent_mk, minlength=num_mk))
    ml.mk_uname = [unit_name[u] for u in mk_unit.tolist()]
    # Sender of each data message (a unit's tasks are co-located): the
    # ``src`` of ``on_data_arrive`` in observed runs.
    ml.mk_src = plain(proc[mk_unit])
    wait_mk = ent_mk[waits]
    ptr, order = _rows(wait_mk, num_mk)
    ml.wait_ptr, ml.wait_tid = plain(ptr), plain(wait_v[order])
    ml.sk_src, ml.sk_dest = plain(sk_src), plain(sk_dest)
    ptr, order = _rows(sync_sk, len(sfirst))
    ml.swait_ptr, ml.swait_tid = plain(ptr), plain(sync_v[order])
    # A sync key sends with its source task, a message with its unit.
    os_ptr, os_sk = _rows(sk_src, n)
    ml.os_ptr, ml.os_sk = plain(os_ptr), plain(os_sk)
    cons_ptr, order = _rows(ent_v, n)
    ml.cons_ptr, ml.cons_mk = plain(cons_ptr), plain(ent_mk[order])
    # Versions of one (dest, object) pair form a group.
    grp_key = mk_dest * nobj + mk_oid
    grp_of, gfirst = _first_seen(grp_key)
    ml.num_grp, ml.grp_of = len(gfirst), plain(grp_of)
    ptr, grp_mk = _rows(grp_of, len(gfirst))
    ml.grp_ptr, ml.grp_mk = plain(ptr), plain(grp_mk)
    grp_at = np.full(nprocs * nobj, -1, dtype=np.int64)
    grp_at[grp_key[gfirst]] = np.arange(len(gfirst))
    ml.grp_at = grp_at.tolist()
    ml.grp_src = plain(proc[mk_unit[gfirst]])
    # Outgoing data: one od slot per mk, in the row of its unit.
    od_ptr, od_mk = _rows(mk_unit, n)
    ml.od_ptr, ml.od_mk = plain(od_ptr), plain(od_mk)
    ml.od_grp = plain(grp_of[od_mk])
    od_dest, od_oid, od_unit = mk_dest[od_mk], mk_oid[od_mk], mk_unit[od_mk]
    ml.od_dest, ml.od_oid, ml.od_unit = plain(od_dest), plain(od_oid), plain(od_unit)
    ml.od_uname = [unit_name[u] for u in ml.od_unit]
    osz = gi.oid_size
    ml.od_nbytes = [osz[o] for o in ml.od_oid]
    ml.noisy = ((pending0 > 0) | (np.diff(od_ptr) > 0) | (np.diff(os_ptr) > 0)
                | (np.diff(cons_ptr) > 0)).tolist()
    ml._costs = {}
    return ml


class LoweredSchedule:
    """Per-schedule list tables in position space (see module docstring).

    Built once per :class:`~repro.machine.simulator.CompiledSchedule`
    by :func:`lower_schedule`.  The message, sync, address and group
    tables are the shared :class:`MappingLowering`'s, read from
    :attr:`mapping`.
    """

    __slots__ = (
        "mapping", "num_tasks", "proc_start", "tid_at", "weight",
        "run_end", "od_row", "od_ok0", "od_ow", "perm_bytes",
    )

    def version_at(self, q: int, oid: int, done: int) -> Optional[str]:
        """Unit name of the last write of ``oid`` among the first
        ``done`` positions of processor ``q``'s order (what the
        interpreted engine's ``current_version`` holds then)."""
        ids, writes = self.mapping.ids, self.mapping.gi.write_oids
        last = None
        for pos in range(self.proc_start[q], self.proc_start[q] + done):
            tid = self.tid_at[pos]
            if oid in writes[tid]:
                last = ids.unit_name[ids.unit_of[tid]]
        return last


def lower_schedule(cs) -> LoweredSchedule:
    """Lower ``cs`` to the position-space IR; memoised as ``cs._lowered``.

    The order-independent tables come from the mapping's shared
    :class:`MappingLowering` (built on the first schedule of a
    mapping); everything else here is O(tasks + messages)."""
    cs.check_fresh()
    if cs._lowered is not None:
        cs.counters["lower_hits"] += 1
        return cs._lowered
    cs.counters["lower_misses"] += 1
    _t0_lower = perf_counter()

    g = cs.graph
    gi = graph_index(g)
    mi = cs._mi
    ml = mi.memo("compiled-lowering", lambda: _lower_mapping(g, gi, mi))
    ids = ml.ids
    nprocs = cs.num_procs

    lo = LoweredSchedule()
    lo.mapping = ml
    tid_at, proc_start = cs.profile.tid_at, cs.profile.proc_start
    n = len(tid_at)
    lo.num_tasks = n
    lo.proc_start, lo.tid_at = proc_start, tid_at
    gw = gi.weight
    weight = [gw[i] for i in tid_at]
    lo.weight = weight

    # Commuting-group triggers: a group's data messages leave with its
    # last task in the order, so that task takes over the row of the
    # group's first task (other members' rows are empty).
    od_ptr = ml.od_ptr
    od_row = None
    noisy = ml.noisy
    if ids.groups:
        pos_of = [0] * n
        for pos, i in enumerate(tid_at):
            pos_of[i] = pos
        for first, members in ids.groups.items():
            trig = max(members, key=pos_of.__getitem__)
            if trig != first and od_ptr[first] != od_ptr[first + 1]:
                if od_row is None:
                    od_row = list(range(n))
                    noisy = list(noisy)
                od_row[first], od_row[trig] = trig, first
                for i in (first, trig):
                    r = od_row[i]
                    noisy[i] = (
                        ml.pending0[i] > 0 or od_ptr[r] != od_ptr[r + 1]
                        or ml.os_ptr[i] != ml.os_ptr[i + 1]
                        or ml.cons_ptr[i] != ml.cons_ptr[i + 1]
                    )
    lo.od_row = od_row if od_row is not None else range(n)

    # One pass per processor: silent-run ends (run_end[pos] = end of the
    # run from pos, -1 at a noisy task) and the static version timeline
    # that replaces the interpreted current_version dict.  Every later
    # write of a sent object belongs to another unit (a unit sends with
    # its last task), so the first later write is the first
    # invalidating overwrite.
    run_end = [-1] * n
    od_oid, od_unit = ml.od_oid, ml.od_unit
    od_row_of = lo.od_row
    writes, unit_of = ml.gi.write_oids, ids.unit_of
    od_ok0 = [False] * len(ml.od_mk)
    od_ow = [_NO_OVERWRITE] * len(ml.od_mk)
    for q in range(nprocs):
        start, end = proc_start[q], proc_start[q + 1]
        ver: dict[int, int] = {}
        waiting: dict[int, list[int]] = {}  # oid -> ods sent, no overwrite yet
        run = start
        for pos in range(start, end):
            i = tid_at[pos]
            for o in writes[i]:
                ver[o] = unit_of[i]
                ods = waiting.pop(o, None)
                if ods is not None:
                    for od in ods:
                        od_ow[od] = pos
            if noisy[i]:
                if pos > run:
                    run_end[run:pos] = [pos] * (pos - run)
                run = pos + 1
                r = od_row_of[i]
                for od in range(od_ptr[r], od_ptr[r + 1]):
                    o = od_oid[od]
                    od_ok0[od] = ver.get(o) == od_unit[od]
                    ods = waiting.get(o)
                    if ods is None:
                        waiting[o] = [od]
                    else:
                        ods.append(od)
        if end > run:
            run_end[run:end] = [end] * (end - run)
    lo.run_end = run_end
    lo.od_ok0, lo.od_ow = od_ok0, od_ow
    lo.perm_bytes = cs.perm_bytes

    cs.counters["lower_s"] += perf_counter() - _t0_lower
    cs._lowered = lo
    if os.environ.get("REPRO_VERIFY_IR"):
        # Debug path: verify the fresh lowering like llvm::verifyModule
        # (memoised above, so the verifier's re-entry hits the cache).
        from ..analysis.irverify import debug_verify

        debug_verify(cs)
    return lo


def get_exec_plan(
    cs,
    capacity: int,
    spec: MachineSpec,
    memory_managed: bool,
    plan=None,
) -> MapTables:
    """The MAP tables a run of ``cs`` reads: ``plan``'s (else the
    memoised ``cs.plan_for(capacity)``'s), or in baseline mode only the
    end-of-order sentinels.  Each call counts an ``exec_plan_misses``
    (``exec_plan_hits`` stays 0); ``spec`` only feeds the debug
    verifier (``REPRO_VERIFY_IR``)."""
    cs.counters["exec_plan_misses"] += 1
    _t0_plan = perf_counter()
    lo = lower_schedule(cs)
    ep = ((plan or cs.plan_for(capacity)).tables if memory_managed
          else MapTables.of([()] * cs.num_procs, lo.proc_start))
    cs.counters["exec_plan_s"] += perf_counter() - _t0_plan
    if os.environ.get("REPRO_VERIFY_IR"):
        # Debug path: check the MAP tables before anything runs them.
        from ..analysis.irverify import debug_verify

        debug_verify(cs, ep, spec)
    return ep


def _past(t: float, now: float) -> str:
    return f"event scheduled in the past (t={t!r} < now={now!r})"


def _seg_until_hot(weight, k, n, a, b, thr):
    """Checked silent-run kernel.

    Executes positions ``k..n-1`` sequentially from time ``a``; stops
    after executing the first task whose finish crosses ``thr`` (its
    completion must go through the event heap).  Returns the new
    ``(avail, busy, crossing position, last-inline-finish)``; a crossing
    position of ``n`` means the whole run completed inline.
    """
    i = k
    lastf = a
    while i < n:
        w = weight[i]
        f = a + w
        b += w
        a = f
        if f >= thr:
            break
        lastf = f
        i += 1
    return a, b, i, lastf


def run_compiled(sim) -> "SimResult":  # noqa: F821 (sphinx-style ref)
    """Execute ``sim`` with the array-compiled engine.

    Mirrors :func:`~repro.machine.reference.run_interpreted`
    action-for-action (see the module docstring's exactness contract),
    including its :class:`~repro.obs.instrument.Instrument` hook calls
    and fault-injection sites; returns a
    :class:`~repro.machine.simulator.SimResult` with
    ``engine="compiled"``.
    """
    from .simulator import ProcessorStats

    cs = sim.compiled
    spec = sim.spec
    obs, suite, tlog = sim._observers()
    #: One gate hoisted out of the loop, as in the interpreted engine:
    #: unobserved, each hook site costs one local-bool test.
    observing = obs is not None
    if observing:
        obs.on_run_begin(0.0, sim.p, sim.capacity, sim.memory_managed)
    #: Run-local fault injector, hoisted the same way (``None``: each
    #: perturbation site costs one local-is-None test).
    fi = sim.faults.injector() if sim.faults and sim.faults.active else None
    overwrite = fi is not None and fi.overwrite_slots
    capacity = sim.capacity
    memory_managed = sim.memory_managed
    preknown = sim.preknown_addresses
    managed_check = memory_managed and not preknown
    ep = get_exec_plan(cs, capacity, spec, memory_managed, plan=sim.plan)
    lo = cs._lowered
    ml = lo.mapping
    gi = ml.gi
    nprocs = ml.num_procs
    nobjects = ml.num_objects

    # Static tables as locals (closure lookups beat attribute lookups).
    proc_start, tid_at = lo.proc_start, lo.tid_at
    weight, run_end = lo.weight, lo.run_end
    od_row, od_ok0, od_ow = lo.od_row, lo.od_ok0, lo.od_ow
    od_ptr, os_ptr, cons_ptr = ml.od_ptr, ml.os_ptr, ml.cons_ptr
    od_mk, od_grp = ml.od_mk, ml.od_grp
    os_sk, cons_mk = ml.os_sk, ml.cons_mk
    mk_dest, mk_oid, mk_uname = ml.mk_dest, ml.mk_oid, ml.mk_uname
    mk_src = ml.mk_src
    wait_ptr, wait_tid = ml.wait_ptr, ml.wait_tid
    grp_of, grp_ptr, grp_mk = ml.grp_of, ml.grp_ptr, ml.grp_mk
    grp_at, grp_src = ml.grp_at, ml.grp_src
    sk_src, sk_dest = ml.sk_src, ml.sk_dest
    swait_ptr, swait_tid = ml.swait_ptr, ml.swait_tid
    (_, map_pos, mf_ptr, mf_oid, ma_ptr, ma_oid, mp_ptr, pkg_src, pkg_dst,
     pkg_ptr, pkg_oid) = ep
    map_oh, free_cost, alloc_cost = (spec.map_overhead, spec.free_cost,
                                     spec.alloc_cost)
    pkg_oh, addr_cost = spec.package_overhead, spec.address_cost
    od_net, od_nic = ml.costs(spec)
    osz = gi.oid_size
    obj_name = gi.object_names
    od_oid, od_dest, od_uname = ml.od_oid, ml.od_dest, ml.od_uname
    od_nbytes = ml.od_nbytes
    names = gi.names
    send_oh, put_lat, ra_cost = (spec.send_overhead, spec.put_latency,
                                 spec.ra_cost)
    nic_serialize = spec.nic_serialize
    heappush, heappop = heapq.heappush, heapq.heappop
    if fi is not None:  # the oracle's ``w * fi.exe_factor(q)`` per task
        weight = [weight[k] * fi.exe_factor(q) for q in range(nprocs)
                  for k in range(proc_start[q], proc_start[q + 1])]

    # --- mutable run-local state --------------------------------------
    state = [_REC] * nprocs
    cur = list(proc_start[:nprocs])  # next position per processor
    pend = proc_start[1:]
    mcur = ep.map_first[:nprocs]  # next MAP per processor
    avail = [0.0] * nprocs
    busy = [0.0] * nprocs
    over = [0.0] * nprocs
    nmaps = [0] * nprocs
    dmsg = [0] * nprocs
    smsg = [0] * nprocs
    susp_ct = [0] * nprocs
    psent = [0] * nprocs
    pread = [0] * nprocs
    peakmem = [0] * nprocs
    fin = [0.0] * nprocs
    ltf = [0.0] * nprocs  # last task finish per processor
    nic_free = [0.0] * nprocs

    pending = ml.pending0.copy()
    need = ml.mk_need0.copy()
    arrived = bytearray(ml.num_mk)
    sync_arr = bytearray(ml.num_sk)
    known = (  # per (dest, object) pair: its owner knows the address
        bytearray(ml.num_grp) if managed_check
        else bytearray(b"\x01" * ml.num_grp)
    )
    allocated = bytearray(nprocs * nobjects)
    used = [0] * nprocs
    apk = [0] * nprocs  # allocator peak per processor
    suspended: list[list[int]] = [[] for _ in range(nprocs)]
    pending_pkgs: list[list[int]] = [[] for _ in range(nprocs)]
    map_pending = [0] * nprocs
    slot = bytearray(nprocs * nprocs)
    inbox_row = [[-1] * nprocs for _ in range(nprocs)]
    inbox_ct = [0] * nprocs
    finished = 0

    # Pre-allocation: permanent footprint, then (baseline) the full
    # volatile span, in the interpreted engine's order.  No allocation
    # fails: the capacity is at least MIN_MEM (TOT in baseline mode),
    # and a caller's plan passed MapPlan.check (chains and capacity).
    for q in range(nprocs):
        pb = lo.perm_bytes[q]
        if pb:
            used[q] = pb
            apk[q] = pb
            if observing:
                obs.on_alloc(0.0, q, "<permanent>", pb, pb)
    if not memory_managed:
        oid_of = gi.oid
        for q in range(nprocs):
            u = used[q]
            base = q * nobjects
            for oid in [oid_of[m] for m in cs.profile.procs[q].span]:
                sz = osz[oid]
                allocated[base + oid] = 1
                u += sz
                if observing:
                    obs.on_alloc(0.0, q, obj_name[oid], sz, u)
            used[q] = u
            if u > apk[q]:
                apk[q] = u

    # Every push asserts causality (t >= now, the time of the event in
    # hand), as the interpreted post() does; seqs rise strictly.
    now = 0.0
    next_seq = count(nprocs + 1).__next__

    def charge(q: int, t: float, cost: float, kind: str) -> float:
        a = avail[q]
        if a < t:
            a = t
        end = a + cost
        avail[q] = end
        over[q] += cost
        if observing:
            obs.on_overhead(a, end, q, kind)
        return end

    def _raise_version(q: int, od: int):
        oid = od_oid[od]
        raise DataConsistencyError(
            f"P{q} sending {obj_name[oid]!r} version "
            f"{lo.version_at(q, oid, cur[q] - proc_start[q])!r} for an "
            f"edge requiring version {od_uname[od]!r}"
        )

    def dispatch(q: int, od: int, t: float) -> None:
        if not od_ok0[od] or cur[q] > od_ow[od]:
            _raise_version(q, od)
        t2 = charge(q, t, send_oh, "send")
        dmsg[q] += 1
        if nic_serialize:
            nf = nic_free[q]
            start = nf if nf >= t2 else t2
            nic_free[q] = start + od_nic[od]
            arrive = start + od_net[od]
        else:
            arrive = t2 + od_net[od]
        if fi is not None:
            arrive += fi.put_delay(q, od_dest[od], od_net[od])
        if observing:
            obs.on_put(t2, arrive, q, od_dest[od], obj_name[od_oid[od]],
                       od_uname[od], od_nbytes[od])
        assert arrive >= now, _past(arrive, now)
        heappush(events, (arrive, next_seq(), _DATA_BASE | od_mk[od]))

    def ra(q: int, t: float) -> None:
        if inbox_ct[q]:
            row = inbox_row[q]
            for src in range(nprocs):
                k = row[src]
                if k < 0:
                    continue
                row[src] = -1
                base = src * nobjects
                i = pkg_ptr[k]
                hi = pkg_ptr[k + 1]
                while i < hi:
                    gid = grp_at[base + pkg_oid[i]]
                    if gid >= 0 and grp_src[gid] == q:
                        known[gid] = 1
                    i += 1
                pread[q] += 1
                charge(q, t, ra_cost, "ra")
                a = avail[q]
                start = a if a >= t else t
                if observing:
                    obs.on_package_read(start, q, src, hi - pkg_ptr[k])
                free_at = start + put_lat
                if fi is not None:
                    free_at += fi.consume_delay(q, src, put_lat)
                assert free_at >= now, _past(free_at, now)
                heappush(events, (free_at, next_seq(),
                                  _SLOT_BASE | (src * nprocs + q)))
            inbox_ct[q] = 0
        if suspended[q]:
            still = []
            ready = []
            for od in suspended[q]:
                if known[od_grp[od]]:
                    ready.append(od)
                else:
                    still.append(od)
            suspended[q] = still
            for od in ready:
                a = avail[q]
                dispatch(q, od, a if a >= t else t)
                if observing:
                    a = avail[q]
                    obs.on_put_drain(a if a >= t else t, q, od_dest[od],
                                     obj_name[od_oid[od]], len(still))

    def try_send(q: int, t: float) -> bool:
        still = []
        for k in pending_pkgs[q]:
            dst = pkg_dst[k]
            naddr = pkg_ptr[k + 1] - pkg_ptr[k]
            if slot[q * nprocs + dst] and not overwrite:
                still.append(k)
                if observing:
                    a = avail[q]
                    obs.on_package_block(a if a >= t else t, q, dst, naddr)
                continue
            slot[q * nprocs + dst] = 1
            t2 = charge(q, t, pkg_oh + naddr * addr_cost, "package")
            psent[q] += 1
            if observing:
                obs.on_package_send(t2, q, dst, naddr)
            assert t2 + put_lat >= now, _past(t2 + put_lat, now)
            heappush(events, (t2 + put_lat, next_seq(), _ADDR_BASE | k))
        pending_pkgs[q] = still
        return not still

    def exec_map(q: int, k: int, t: float) -> None:
        nmaps[q] += 1
        f0, f1, a0, a1 = mf_ptr[k], mf_ptr[k + 1], ma_ptr[k], ma_ptr[k + 1]
        if observing:
            a = avail[q]
            obs.on_map(a if a >= t else t, q, map_pos[k] - proc_start[q],
                       [obj_name[o] for o in mf_oid[f0:f1]],
                       [obj_name[o] for o in ma_oid[a0:a1]])
        charge(q, t, map_oh + (f1 - f0) * free_cost + (a1 - a0) * alloc_cost,
               "map")
        t_map = avail[q]  # memory ops take effect at MAP completion
        u = used[q]
        base = q * nobjects
        for i in range(f0, f1):
            oid = mf_oid[i]
            allocated[base + oid] = 0
            u -= osz[oid]
            if observing:
                obs.on_free(t_map, q, obj_name[oid], osz[oid], u)
            gid = grp_at[base + oid]
            if gid >= 0:
                for j in range(grp_ptr[gid], grp_ptr[gid + 1]):
                    arrived[grp_mk[j]] = 0
        for oid in ma_oid[a0:a1]:
            sz = osz[oid]
            allocated[base + oid] = 1
            u += sz
            if observing:
                obs.on_alloc(t_map, q, obj_name[oid], sz, u)
        used[q] = u
        # Sizes are non-negative, so the allocator's running peak over
        # this MAP's allocations is its final footprint.
        if u > apk[q]:
            apk[q] = u
        if apk[q] > peakmem[q]:
            peakmem[q] = apk[q]
        if not preknown:
            pending_pkgs[q].extend(range(mp_ptr[k], mp_ptr[k + 1]))
            map_pending[q] = 1

    # --- event loop (flat: see the module docstring) -------------------
    # Each event wakes at most one processor q at time t, and the advance
    # block at the bottom of the loop runs it.  The bootstrap is P + 1
    # queued events at time 0 with seqs 0..P, ahead of every push; the
    # last only closes it.
    events = [(0.0, q, _BOOT_BASE | q) for q in range(nprocs + 1)]
    nxt = -1  # an inline completion: the next event, at time t
    while True:
        if nxt < 0:
            if not events:
                break
            t, _, code = heappop(events)
        else:
            code = nxt
            nxt = -1
        now = t
        kind = code >> _SHIFT
        if kind == 0:  # TASK_DONE on processor q (= code)
            q = code
            k = cur[q]
            cur[q] = k + 1
            ltf[q] = t
            if run_end[k] < 0 or observing:
                # The one completion site of a noisy task (of every task
                # when observed): consume, then send and sync.
                tid = tid_at[k]
                i = cons_ptr[tid]
                hi = cons_ptr[tid + 1]
                while i < hi:
                    need[cons_mk[i]] -= 1
                    i += 1
                if observing:
                    obs.on_state(t, q, "SND")
                r = od_row[tid]
                i = od_ptr[r]
                hi = od_ptr[r + 1]
                while i < hi:
                    if known[od_grp[i]]:
                        dispatch(q, i, t)
                    else:
                        suspended[q].append(i)
                        susp_ct[q] += 1
                        if observing:
                            obs.on_put_suspend(
                                t, q, od_dest[i], obj_name[od_oid[i]],
                                od_uname[i], len(suspended[q]))
                    i += 1
                i = os_ptr[tid]
                hi = os_ptr[tid + 1]
                while i < hi:
                    t2 = charge(q, t, send_oh, "send")
                    smsg[q] += 1
                    sk = os_sk[i]
                    if observing:
                        obs.on_sync(t2, t2 + put_lat, q, sk_dest[sk],
                                    names[sk_src[sk]])
                    assert t2 + put_lat >= now, _past(t2 + put_lat, now)
                    heappush(events, (t2 + put_lat, next_seq(),
                                      _SYNC_BASE | sk))
                    i += 1
            state[q] = _REC
            a = avail[q]
            if a > t:
                t = a
        elif kind == 5:  # BOOT of processor q (q == P closes the bootstrap)
            q = code & _ARG_MASK
            if q == nprocs:
                continue
        else:
            arg = code & _ARG_MASK
            if kind == 1:  # DATA_ARRIVE of message key arg
                mk = arg
                q = mk_dest[mk]
                if managed_check and not allocated[q * nobjects + mk_oid[mk]]:
                    raise SimulationError(
                        f"data for {obj_name[mk_oid[mk]]!r} arrived at P{q} "
                        "with no allocated space (protocol violation)"
                    )
                gid = grp_of[mk]
                glo = grp_ptr[gid]
                ghi = grp_ptr[gid + 1]
                if ghi - glo > 1:
                    i = glo
                    while i < ghi:
                        mk2 = grp_mk[i]
                        if mk2 != mk and arrived[mk2]:
                            if need[mk2] > 0:
                                raise DataConsistencyError(
                                    f"P{q} received {obj_name[mk_oid[mk]]!r}/"
                                    f"{mk_uname[mk]!r} while version "
                                    f"{mk_uname[mk2]!r} is still needed"
                                )
                            arrived[mk2] = 0
                        i += 1
                if not arrived[mk]:
                    arrived[mk] = 1
                    i = wait_ptr[mk]
                    hi = wait_ptr[mk + 1]
                    while i < hi:
                        pending[wait_tid[i]] -= 1
                        i += 1
                if observing:
                    obs.on_data_arrive(t, q, obj_name[mk_oid[mk]],
                                       mk_uname[mk], mk_src[mk])
            elif kind == 2:  # SYNC_ARRIVE of sync key arg
                q = sk_dest[arg]
                if not sync_arr[arg]:
                    sync_arr[arg] = 1
                    i = swait_ptr[arg]
                    hi = swait_ptr[arg + 1]
                    while i < hi:
                        pending[swait_tid[i]] -= 1
                        i += 1
            elif kind == 3:  # ADDR_ARRIVE of package arg
                q = pkg_dst[arg]
                row = inbox_row[q]
                if row[pkg_src[arg]] < 0:
                    inbox_ct[q] += 1
                row[pkg_src[arg]] = arg
                if state[q] == _DONE:
                    ra(q, t)  # a finished processor still frees the slot
                    continue
            else:  # SLOT_FREE: arg = src * P + dst
                slot[arg] = 0
                q = arg // nprocs
            # Wake q unless nothing can change.  A processor left in REC
            # waits on the noisy task at cur[q]: waking it is a no-op (as
            # in the interpreted engine) unless that task became ready or
            # RA/CQ has work; an observed run wakes it anyway, for its
            # REC mark.
            st = state[q]
            if st == _REC:
                if not (inbox_ct[q] or suspended[q] or observing
                        or pending[tid_at[cur[q]]] <= 0):
                    continue
            elif st == _EXE or st == _DONE:
                continue

        # --- advance processor q from time t --------------------------
        if inbox_ct[q] or suspended[q]:
            ra(q, t)
        end = pend[q]
        while True:
            if map_pending[q]:
                a = avail[q]
                if not try_send(q, a if a >= t else t):
                    state[q] = _MAP
                    if observing:
                        a = avail[q]
                        obs.on_state(a if a >= t else t, q, "MAP")
                    break
                map_pending[q] = 0
            k = cur[q]
            if k >= end:
                a = avail[q]
                if a < t:
                    a = t
                if suspended[q] or pending_pkgs[q]:
                    state[q] = _END
                    if observing:
                        obs.on_state(a, q, "END")
                else:
                    state[q] = _DONE
                    fin[q] = a
                    finished += 1
                    if observing:
                        obs.on_proc_end(a, q)
                break
            m = mcur[q]
            mp = map_pos[m]
            if mp == k:
                exec_map(q, m, t)
                mcur[q] = m + 1
                continue
            n = run_end[k]
            if n > k and not observing:
                # Silent run k..n-1, cut at the next MAP (observed runs
                # step it task by task below, through the hooks).
                if mp < n:
                    n = mp
                a = avail[q]
                if a < t:
                    a = t
                a2, b2, j, lastf = _seg_until_hot(
                    weight, k, n, a, busy[q], events[0][0] if events else _INF
                )
                busy[q] = b2
                avail[q] = a2
                if j > k:
                    cur[q] = j
                    ltf[q] = lastf
                if j < n:
                    # Task j executed; its completion crosses the queue
                    # head and must pop through the heap.
                    state[q] = _EXE
                    assert a2 >= now, _past(a2, now)
                    heappush(events, (a2, next_seq(), _TASK_BASE | q))
                    break
                continue
            # A noisy task.
            tid = tid_at[k]
            if pending[tid] > 0:
                state[q] = _REC
                if observing:
                    a = avail[q]
                    obs.on_state(a if a >= t else t, q, "REC")
                break
            w = weight[k]
            a = avail[q]
            if a < t:
                a = t
            busy[q] += w
            f = a + w
            avail[q] = f
            if observing:
                obs.on_exe(a, f, q, names[tid])
            state[q] = _EXE
            if events and f >= events[0][0]:
                assert f >= now, _past(f, now)
                heappush(events, (f, next_seq(), _TASK_BASE | q))
            else:
                # Strictly before the queue head: the interpreted engine
                # would pop exactly this completion next, so it is the
                # next event, with no heap round-trip.
                nxt = _TASK_BASE | q
                t = f
            break

    # --- verdicts (exact interpreted parity) --------------------------
    nt = [cur[q] - proc_start[q] for q in range(nprocs)]
    completed = sum(nt)
    if finished != nprocs:
        _raise_deadlock(
            sim, lo, ep, state, nt, completed, arrived, sync_arr,
            suspended, pending_pkgs, slot, known,
        )
    if completed != sim.g.num_tasks:
        raise SimulationError(
            f"only {completed}/{sim.g.num_tasks} tasks executed"
        )
    stats = []
    for q in range(nprocs):
        pk = peakmem[q]
        if apk[q] > pk:
            pk = apk[q]
        if pk > capacity:
            raise SimulationError(
                f"P{q} peak memory {pk} exceeds capacity {capacity}"
            )
        stats.append(ProcessorStats(
            busy_time=busy[q],
            overhead_time=over[q],
            num_maps=nmaps[q],
            num_tasks=nt[q],
            data_msgs_sent=dmsg[q],
            sync_msgs_sent=smsg[q],
            suspended_sends=susp_ct[q],
            packages_sent=psent[q],
            packages_read=pread[q],
            peak_memory=pk,
            finish_time=fin[q],
        ))
    pt = max(fin) if fin else 0.0
    if observing:
        obs.on_run_end(pt)
    return sim._result(pt, max(ltf) if ltf else 0.0, stats, "compiled",
                       suite, tlog)


def _raise_deadlock(
    sim, lo, ep, state, nt, completed, arrived, sync_arr,
    suspended, pending_pkgs, slot, known,
):
    """Reconstruct the interpreted engine's DeadlockError verbatim."""
    from .reference import name_tables

    cs = sim.compiled
    tables = name_tables(cs)
    sched = cs.schedule
    ml = lo.mapping
    nprocs = ml.num_procs
    blocked = {
        q: _STATE_NAMES[state[q]]
        for q in range(nprocs)
        if state[q] != _DONE
    }
    err = DeadlockError(blocked, completed, sim.g.num_tasks)
    details: dict[int, str] = {}
    wait_for: dict[int, set[int]] = {}
    assignment = sched.assignment
    trigger = tables.trigger
    names, obj_name = ml.gi.names, ml.gi.object_names
    mk_index = {
        (d, obj_name[o], u): mk
        for mk, (d, o, u) in enumerate(zip(ml.mk_dest, ml.mk_oid, ml.mk_uname))
    }
    sk_index = {
        (names[s], d): sk for sk, (s, d) in enumerate(zip(ml.sk_src, ml.sk_dest))
    }
    for q in range(nprocs):
        if state[q] == _DONE:
            continue
        waits = wait_for.setdefault(q, set())
        order = sched.orders[q]
        if nt[q] < len(order):
            task = order[nt[q]]
            missing = []
            for req in tables.needs[task]:
                if req[0] == "data":
                    mk = mk_index[(q, req[1], req[2])]
                    if not arrived[mk]:
                        missing.append(f"data {req[1]}@{req[2]}")
                        waits.add(assignment[trigger[req[2]]])
                elif not sync_arr[sk_index[(req[1], q)]]:
                    missing.append(f"sync {req[1]}")
                    waits.add(assignment[req[1]])
            details[q] = f"next={task} missing={missing}"
        else:
            susp = [
                (obj_name[ml.od_oid[od]], ml.od_uname[od], ml.od_dest[od],
                 ml.od_nbytes[od])
                for od in suspended[q]
            ]
            pkgs = [
                (ep.pkg_dst[k], [obj_name[o] for o in
                                 ep.pkg_oid[ep.pkg_ptr[k]:ep.pkg_ptr[k + 1]]])
                for k in pending_pkgs[q]
            ]
            details[q] = f"END suspended={susp} pending_pkgs={pkgs}"
        for k in pending_pkgs[q]:
            if slot[q * nprocs + ep.pkg_dst[k]]:
                waits.add(ep.pkg_dst[k])
        for od in suspended[q]:
            if not known[ml.od_grp[od]]:
                waits.add(ml.od_dest[od])
        waits.discard(q)
    err.details = details
    err.wait_for = wait_for
    raise err

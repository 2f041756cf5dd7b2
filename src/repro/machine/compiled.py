"""Array-compiled execution engine (ROADMAP item 1).

This module lowers a :class:`~repro.machine.simulator.CompiledSchedule`
— tasks, MAP points, address slots and the five-state protocol of
Definitions 3–6 — into int-indexed list tables and executes them with
a flat event queue, replacing the per-event Python objects of the
interpreted engine with integer codes and scalar state vectors.

Table layouts
-------------

Lowering (:func:`lower_schedule`, capacity/spec-independent, memoised on
the ``CompiledSchedule``) enumerates every entity as a small integer:

``tid``
    task id = position in the flattened processor orders;
    ``proc_start`` (an offset list, one entry per processor plus a
    sentinel) maps a processor to its contiguous tid range.
``oid`` / ``uid``
    object and producer-unit ids (``TaskGraph.object_index`` order).
``mk``
    a *data message key* ``(dest, object, unit)``; carries a CSR waiter
    list (``wait_ptr``/``wait_tid``), an initial stale-copy counter
    (``need0``) and a group id ``grp`` linking the versions of one
    ``(dest, object)`` pair for the consistency checks.
``sk``
    a *sync key* ``(unit-task, dest)`` with its own waiter CSR.
``ak``
    an *address-knowledge key* ``(owner, object, dest)``; the sender
    side consults a flat byte vector instead of per-processor sets.
``od`` / ``os``
    outgoing data / sync message slots, CSR-indexed per trigger task
    (``od_ptr`` etc.), holding the target ``mk``/``sk``/``ak`` ids and
    per-spec precomputed network times.

Execution plans (:func:`get_exec_plan`) are additionally keyed by
``(capacity, spec, memory_managed, preknown)`` and compile each
processor's order + MAP plan into a *step program* of index tuples
into the lowering:

``(SEG, first, end, vec)``
    a maximal run of *silent* tids ``first..end-1`` (no remote inputs,
    no outgoing messages, no consumptions, no MAP between); ``vec`` is
    ``None`` below :data:`_SEG_VEC_MIN` tasks, else the numpy kernel's
    ``(weights, scratch, scratch)`` with ``weights == weight[first:end]``.
``(TASK, tid)``
    one message-bearing task; its weight and ``od``/``os``/``cons``
    ranges are read from the lowering.
``(MAP, cost, free_lo, free_hi, alloc_lo, alloc_hi, pkg_lo, pkg_hi)``
    frees/allocs/packages with the exact interpreted cost expression,
    as ranges into the plan's own MAP tables.

Events are 3-tuples ``(time, seq, code)`` where ``code`` packs
``kind << 44 | arg``.

Exactness contract
------------------

The interpreted :meth:`Simulator._run_interpreted` is the differential
oracle; this engine must agree with it *bit-for-bit* (finish times,
stats, peaks, violation verdicts compared with ``==``).  Three rules
make that possible:

* **Identical float expressions.**  Every time value is produced by the
  same sequential float64 operation sequence as the interpreted engine
  (``start + cost``, ``max(avail, t)``, per-spec cost formulas copied
  verbatim); there is no numpy accumulation in the run loop.
* **Push-only bootstrap.**  The interpreted bootstrap advances every
  processor before the first pop, so each processor's *first* task
  completion must enter the heap (never complete inline) to keep the
  relative ``(time, seq)`` order of later same-timestamp events
  identical.
* **Strict inline rule.**  After the first pop, a task finishing at
  ``f`` completes inline (no heap round-trip) iff ``f`` is *strictly*
  below the earliest queued event; causality (all pushes happen at or
  after the current event time, asserted at push) guarantees the
  interpreted engine would pop exactly that completion next, with no
  intervening seq-bearing pushes.  Ties (``f >= heap-min``) always go
  through the heap.

A silent segment applies the same rule task by task: one checked
kernel per run size (``_seg_until_hot`` over ``weight``,
``_seg_until_vec`` over ``vec``) executes tasks until the first finish
at or past the horizon.  ``*_hot`` functions are kept free of
per-event Python allocation by ``tools/lint_rules.py``
(``compiled-hot-alloc``).

Static dispatch-version flags replace the interpreted engine's dynamic
``current_version`` dict: under the owner-compute rule every writer of
an object runs on the dispatching processor, so an order scan computes
each message's version validity at trigger time (``od_ok0``) plus the
first later overwrite position (``od_ow``) that could invalidate a
*suspended* send drained after more local tasks completed.  Lowering
therefore requires an owner-compute assignment and non-negative task
weights, and raises :class:`~repro.errors.SimulationError` otherwise.

Fallback conditions
-------------------

``Simulator.run`` routes to this engine only for fault-free,
unobserved runs (no metrics/trace/instrument, no fault injection, no
caller-supplied MAP plan) — everything else falls back to the
interpreted oracle explicitly and is recorded in ``SimResult.engine``.
Negative or non-finite costs never reach either engine:
:class:`~repro.machine.spec.MachineSpec` rejects them.

Implementation note: every lowered table is one plain Python list,
because scalar list indexing is several times faster than per-element
numpy indexing under CPython.  The run loop and the IR verifier
(:mod:`repro.analysis.irverify`) read the same list objects, and the
step programs hold only tids into them, so a verified table is the
table that runs.  numpy appears only in the ``vec`` of long silent
runs (:func:`_seg_step`, :func:`_seg_until_vec`), whose kernel is
bit-identical to the Python loop and selected by run length.
"""

from __future__ import annotations

import heapq
import os
from time import perf_counter
from typing import Optional

import numpy as np

from ..core.maps import maps_by_position
from ..core.placement import validate_owner_compute
from ..errors import (
    DataConsistencyError,
    DeadlockError,
    MemoryError_,
    SimulationError,
)
from .spec import MachineSpec

__all__ = [
    "ExecPlan",
    "LoweredSchedule",
    "get_exec_plan",
    "lower_schedule",
    "run_compiled",
]

# Processor states (ints; same meaning as simulator.ProcState).
_REC, _EXE, _SND, _MAP, _END, _DONE = 0, 1, 2, 3, 4, 5
_STATE_NAMES = ("REC", "EXE", "SND", "MAP", "END", "DONE")

# Step opcodes.
_SEG_OP, _TASK_OP, _MAP_OP = 0, 1, 2

# Event codes: code = kind << 44 | arg (args are entity ids < 2**44).
_SHIFT = 44
_ARG_MASK = (1 << _SHIFT) - 1
_TASK_BASE = 0 << _SHIFT  # arg = processor
_DATA_BASE = 1 << _SHIFT  # arg = mk
_SYNC_BASE = 2 << _SHIFT  # arg = sk
_ADDR_BASE = 3 << _SHIFT  # arg = pkg
_SLOT_BASE = 4 << _SHIFT  # arg = src * P + dst

_INF = float("inf")
_NEG_INF = float("-inf")
_NO_OVERWRITE = 1 << 60  # od_ow sentinel: no later local overwrite


class LoweredSchedule:
    """List-table IR of one compiled schedule (spec/capacity-free).

    Built once per :class:`~repro.machine.simulator.CompiledSchedule`
    by :func:`lower_schedule`.  Each table is stored once, as the list
    the run loop indexes (see module docstring).  Name-level strings
    are kept only per unit (``mk_uname``/``od_uname``); cold-path
    diagnostics rebuild object names as ``obj_name[oid]`` and keep the
    name-level index dicts (``mk_index``/``sk_index``) so deadlock
    reports match the interpreted engine verbatim.
    """

    __slots__ = (
        "num_procs", "num_tasks", "num_objects", "num_mk", "num_sk",
        "num_ak", "num_grp",
        "proc_start", "task_name", "weight", "pending0",
        "od_ptr", "od_mk", "od_ak", "od_dest", "od_oid", "od_nbytes",
        "od_uname", "od_ok0", "od_ow",
        "os_ptr", "os_sk", "cons_ptr", "cons_mk",
        "mk_dest", "mk_oid", "mk_need0", "mk_uname",
        "wait_ptr", "wait_tid", "grp_of", "grp_ptr", "grp_mk",
        "sk_dest", "swait_ptr", "swait_tid",
        "ak_index", "mk_index", "sk_index", "grp_index",
        "obj_name", "obj_size",
        "span_oids", "perm_bytes", "writes_by_po",
    )


class ExecPlan:
    """Executable step programs for one (capacity, spec, mode) tuple.

    Holds the per-processor ``SEG``/``TASK``/``MAP`` step lists (step
    boundaries as tids into the :class:`LoweredSchedule`, which alone
    holds weights and message ranges; see module docstring), the
    lowered MAP actions (free/alloc oids, package table) and every
    spec-dependent cost precomputed with the interpreted engine's exact
    float expressions.  Cached on the owning ``CompiledSchedule`` under
    ``(capacity, spec, memory_managed, preknown)``.
    """

    __slots__ = (
        "capacity", "spec", "memory_managed", "preknown", "managed_check",
        "steps",
        "mf_oid", "mf_grp", "ma_oid",
        "pkg_src", "pkg_dst", "pkg_cost", "pkg_objs",
        "pkg_ak_ptr", "pkg_ak",
        "od_net", "od_nic",
        "send_oh", "put_lat", "ra_cost", "nic_serialize",
        "known_all",
    )


def lower_schedule(cs) -> LoweredSchedule:
    """Lower ``cs`` to the dense IR; memoised as ``cs._lowered``."""
    cs.check_fresh()
    if cs._lowered is not None:
        cs.counters["lower_hits"] += 1
        return cs._lowered
    cs.counters["lower_misses"] += 1
    _t0_lower = perf_counter()

    g, sched = cs.graph, cs.schedule
    nprocs = cs.num_procs
    try:
        validate_owner_compute(g, sched.placement, sched.assignment)
    except Exception as err:
        raise SimulationError(
            f"compiled engine requires an owner-compute assignment: {err}"
        ) from err

    lo = LoweredSchedule()
    lo.num_procs = nprocs
    lo.num_objects = g.num_objects

    # --- tasks: tid = flattened order position -----------------------
    proc_start = [0]
    task_name: list[str] = []
    proc_of: list[int] = []
    for q in range(nprocs):
        task_name.extend(sched.orders[q])
        proc_of.extend([q] * (len(task_name) - proc_start[q]))
        proc_start.append(len(task_name))
    ntasks = len(task_name)
    tid_of = {name: i for i, name in enumerate(task_name)}
    weight = [float(cs.weight[t]) for t in task_name]
    if ntasks and min(weight) < 0.0:
        raise SimulationError(
            "compiled engine requires non-negative task weights"
        )
    lo.num_tasks = ntasks
    lo.proc_start, lo.task_name, lo.weight = proc_start, task_name, weight
    lo.pending0 = [cs.pending0.get(t, 0) for t in task_name]

    # --- objects / units ---------------------------------------------
    oid_of = g.object_index
    obj_name = [""] * g.num_objects
    obj_size = [0] * g.num_objects
    for name, oid in oid_of.items():
        obj_name[oid] = name
        obj_size[oid] = cs.obj_size[name]
    lo.obj_name, lo.obj_size = obj_name, obj_size

    # --- message keys (mk), groups, sync keys (sk) --------------------
    mk_index: dict[tuple, int] = {}
    mk_dest: list[int] = []
    mk_oid: list[int] = []
    mk_uname: list[str] = []
    mk_need0: list[int] = []
    wait_ptr = [0]
    wait_tid: list[int] = []
    grp_index: dict[tuple, int] = {}
    grp_members: list[list[int]] = []
    grp_of: list[int] = []
    for dest in range(nprocs):
        need0 = cs.need_count0[dest]
        for (m, unit), waiters in cs.data_waiters[dest].items():
            mk = len(mk_dest)
            mk_index[(dest, m, unit)] = mk
            mk_dest.append(dest)
            mk_oid.append(oid_of[m])
            mk_uname.append(unit)
            mk_need0.append(need0[(m, unit)])
            wait_tid.extend(tid_of[w] for w in waiters)
            wait_ptr.append(len(wait_tid))
            gkey = (dest, m)
            gid = grp_index.get(gkey)
            if gid is None:
                gid = len(grp_members)
                grp_index[gkey] = gid
                grp_members.append([])
            grp_members[gid].append(mk)
            grp_of.append(gid)
    grp_ptr = [0]
    grp_mk: list[int] = []
    for members in grp_members:
        grp_mk.extend(members)
        grp_ptr.append(len(grp_mk))

    sk_index: dict[tuple, int] = {}
    sk_dest: list[int] = []
    swait_ptr = [0]
    swait_tid: list[int] = []
    for dest in range(nprocs):
        for u, waiters in cs.sync_waiters[dest].items():
            sk_index[(u, dest)] = len(sk_dest)
            sk_dest.append(dest)
            swait_tid.extend(tid_of[w] for w in waiters)
            swait_ptr.append(len(swait_tid))

    lo.num_mk, lo.num_sk = len(mk_dest), len(sk_dest)
    lo.num_grp = len(grp_members)
    lo.mk_index, lo.sk_index, lo.grp_index = mk_index, sk_index, grp_index
    lo.mk_dest, lo.mk_oid, lo.mk_uname = mk_dest, mk_oid, mk_uname
    lo.mk_need0, lo.wait_ptr, lo.wait_tid = mk_need0, wait_ptr, wait_tid
    lo.grp_of, lo.grp_ptr, lo.grp_mk = grp_of, grp_ptr, grp_mk
    lo.sk_dest, lo.swait_ptr, lo.swait_tid = sk_dest, swait_ptr, swait_tid

    # --- outgoing messages (od / os CSR) + address keys (ak) ----------
    ak_index: dict[tuple, int] = {}
    od_ptr = [0]
    od_mk: list[int] = []
    od_ak: list[int] = []
    od_dest: list[int] = []
    od_oid: list[int] = []
    od_nbytes: list[int] = []
    od_uname: list[str] = []
    os_ptr = [0]
    os_sk: list[int] = []
    cons_ptr = [0]
    cons_mk: list[int] = []
    for tid, name in enumerate(task_name):
        src = proc_of[tid]
        for m, unit, dest, nbytes in cs.out_data.get(name, ()):
            akey = (src, oid_of[m], dest)
            ak = ak_index.get(akey)
            if ak is None:
                ak = len(ak_index)
                ak_index[akey] = ak
            od_mk.append(mk_index[(dest, m, unit)])
            od_ak.append(ak)
            od_dest.append(dest)
            od_oid.append(oid_of[m])
            od_nbytes.append(nbytes)
            od_uname.append(unit)
        od_ptr.append(len(od_mk))
        for u, dest in cs.out_sync.get(name, ()):
            os_sk.append(sk_index[(u, dest)])
        os_ptr.append(len(os_sk))
        for m, unit in cs.consumes[name]:
            cons_mk.append(mk_index[(src, m, unit)])
        cons_ptr.append(len(cons_mk))
    lo.num_ak, lo.ak_index = len(ak_index), ak_index
    lo.od_ptr, lo.od_mk, lo.od_ak, lo.od_dest = od_ptr, od_mk, od_ak, od_dest
    lo.od_oid, lo.od_nbytes, lo.od_uname = od_oid, od_nbytes, od_uname
    lo.os_ptr, lo.os_sk = os_ptr, os_sk
    lo.cons_ptr, lo.cons_mk = cons_ptr, cons_mk

    # --- static version timeline (replaces current_version dict) -----
    # writes_by_po[(q, oid)] = ordered (position, unit-name) write list.
    writes_by_po: dict[tuple, list[tuple[int, str]]] = {}
    od_ok0 = [False] * len(od_mk)
    od_ow = [_NO_OVERWRITE] * len(od_mk)
    for q in range(nprocs):
        ver: dict[int, str] = {}
        for pos, tid in enumerate(range(proc_start[q], proc_start[q + 1])):
            name = task_name[tid]
            for m, uu in cs.write_version[name]:
                oid = oid_of[m]
                ver[oid] = uu
                writes_by_po.setdefault((q, oid), []).append((pos, uu))
            for od in range(od_ptr[tid], od_ptr[tid + 1]):
                od_ok0[od] = ver.get(od_oid[od]) == od_uname[od]
        for pos, tid in enumerate(range(proc_start[q], proc_start[q + 1])):
            for od in range(od_ptr[tid], od_ptr[tid + 1]):
                req = od_uname[od]
                for wpos, uu in writes_by_po.get((q, od_oid[od]), ()):
                    if wpos > pos and uu != req:
                        od_ow[od] = wpos
                        break
    lo.od_ok0, lo.od_ow, lo.writes_by_po = od_ok0, od_ow, writes_by_po

    # --- lowering cross-check (TaskGraph.successor_map) ---------------
    # Every cross-processor edge must have been lowered to a
    # data-message or sync waiter above.
    smap = g.successor_map()
    assignment = sched.assignment
    for name in task_name:
        pu = assignment[name]
        for v, objs in smap.get(name, {}).items():
            pv = assignment[v]
            if pu == pv:
                continue
            if objs:
                unit = cs.pid(name)
                for m in objs:
                    if (pv, m, unit) not in mk_index:
                        raise SimulationError(
                            f"lowering lost data edge {name}->{v} ({m!r})"
                        )
            elif (name, pv) not in sk_index:
                raise SimulationError(
                    f"lowering lost sync edge {name}->{v}"
                )

    # --- per-processor memory constants -------------------------------
    lo.span_oids = [
        [oid_of[m] for m in cs.profile.procs[q].span] for q in range(nprocs)
    ]
    lo.perm_bytes = list(cs.perm_bytes)

    cs.counters["lower_s"] += perf_counter() - _t0_lower
    cs._lowered = lo
    if os.environ.get("REPRO_VERIFY_IR"):
        # Debug path: verify the fresh lowering like llvm::verifyModule
        # (memoised above, so the verifier's re-entry hits the cache).
        from ..analysis.irverify import debug_verify

        debug_verify(cs)
    return lo


#: Segment length from which the numpy kernel beats the Python loop.
#: ``np.add.accumulate`` is an element-recursive left fold — the exact
#: addition sequence of the Python kernel — so both paths are
#: bit-identical and the switch is purely a speed decision.
_SEG_VEC_MIN = 64


def _seg_step(weight: list[float], first: int, end: int) -> tuple:
    """SEG step over silent tids ``first..end-1``.  From
    :data:`_SEG_VEC_MIN` tasks its ``vec`` holds the run's weight array
    plus two scratch accumulators (avail and busy chains use different
    bases) for :func:`_seg_until_vec`."""
    n = end - first
    if n < _SEG_VEC_MIN:
        return (_SEG_OP, first, end, None)
    arr = np.asarray(weight[first:end], dtype=np.float64)
    return (_SEG_OP, first, end, (arr, np.empty(n + 1), np.empty(n + 1)))


def get_exec_plan(
    cs,
    capacity: int,
    spec: MachineSpec,
    memory_managed: bool,
    preknown: bool,
) -> ExecPlan:
    """Execution plan for one (capacity, spec, mode); memoised on ``cs``.

    The key includes the full :class:`MachineSpec` (hash-by-value
    frozen dataclass) so sweeps over different machines or scaled
    overheads never share cost tables; :meth:`CompiledSchedule
    .check_fresh` guards against schedule mutation behind the cache.
    """
    cs.check_fresh()
    key = (capacity, spec, memory_managed, preknown)
    ep = cs._exec_plans.get(key)
    if ep is not None:
        cs.counters["exec_plan_hits"] += 1
        return ep
    cs.counters["exec_plan_misses"] += 1
    _t0_plan = perf_counter()
    lo = lower_schedule(cs)
    nprocs = lo.num_procs
    plan = cs.plan_for(capacity) if memory_managed else None

    ep = ExecPlan()
    ep.capacity = capacity
    ep.spec = spec
    ep.memory_managed = memory_managed
    ep.preknown = preknown
    ep.managed_check = memory_managed and not preknown
    ep.known_all = not memory_managed or preknown
    ep.send_oh = spec.send_overhead
    ep.put_lat = spec.put_latency
    ep.ra_cost = spec.ra_cost
    ep.nic_serialize = spec.nic_serialize
    # Exact interpreted cost expressions, per message.
    ep.od_net = [spec.message_time(nb) for nb in lo.od_nbytes]
    ep.od_nic = [nb * spec.byte_time for nb in lo.od_nbytes]

    mf_oid: list[int] = []
    mf_grp: list[int] = []
    ma_oid: list[int] = []
    pkg_src: list[int] = []
    pkg_dst: list[int] = []
    pkg_cost: list[float] = []
    pkg_objs: list[list[str]] = []
    pkg_ak_ptr = [0]
    pkg_ak: list[int] = []
    oid_of = cs.graph.object_index
    grp_index = lo.grp_index
    ak_index = lo.ak_index

    steps: list[list[tuple]] = []
    od_ptr, os_ptr, cons_ptr = lo.od_ptr, lo.os_ptr, lo.cons_ptr
    pending0, weight = lo.pending0, lo.weight
    map_at = maps_by_position(plan, nprocs)
    for q in range(nprocs):
        prog: list[tuple] = []
        start, end = lo.proc_start[q], lo.proc_start[q + 1]
        first = start  # first tid of the open silent run
        maps_q = map_at[q]
        for tid in range(start, end):
            mp = maps_q.get(tid - start)
            if mp is not None:
                if first < tid:
                    prog.append(_seg_step(weight, first, tid))
                cost = (
                    spec.map_overhead
                    + len(mp.frees) * spec.free_cost
                    + len(mp.allocs) * spec.alloc_cost
                )
                flo = len(mf_oid)
                for m in mp.frees:
                    mf_oid.append(oid_of[m])
                    mf_grp.append(grp_index.get((q, m), -1))
                alo = len(ma_oid)
                for m in mp.allocs:
                    ma_oid.append(oid_of[m])
                plo = len(pkg_dst)
                for dst, objs in sorted(mp.notifications.items()):
                    pkg_src.append(q)
                    pkg_dst.append(dst)
                    pkg_cost.append(
                        spec.package_overhead + len(objs) * spec.address_cost
                    )
                    pkg_objs.append(list(objs))
                    for m in objs:
                        ak = ak_index.get((dst, oid_of[m], q))
                        if ak is not None:
                            pkg_ak.append(ak)
                    pkg_ak_ptr.append(len(pkg_ak))
                prog.append((
                    _MAP_OP, cost, flo, len(mf_oid), alo, len(ma_oid),
                    plo, len(pkg_dst),
                ))
                first = tid
            silent = (
                pending0[tid] == 0
                and od_ptr[tid] == od_ptr[tid + 1]
                and os_ptr[tid] == os_ptr[tid + 1]
                and cons_ptr[tid] == cons_ptr[tid + 1]
            )
            if not silent:
                if first < tid:
                    prog.append(_seg_step(weight, first, tid))
                prog.append((_TASK_OP, tid))
                first = tid + 1
        if first < end:
            prog.append(_seg_step(weight, first, end))
        steps.append(prog)

    ep.steps = steps
    ep.mf_oid, ep.mf_grp, ep.ma_oid = mf_oid, mf_grp, ma_oid
    ep.pkg_src, ep.pkg_dst = pkg_src, pkg_dst
    ep.pkg_cost, ep.pkg_objs = pkg_cost, pkg_objs
    ep.pkg_ak_ptr, ep.pkg_ak = pkg_ak_ptr, pkg_ak
    cs.counters["exec_plan_s"] += perf_counter() - _t0_plan
    cs._exec_plans[key] = ep
    if os.environ.get("REPRO_VERIFY_IR"):
        # Debug path: check the step programs before anything runs them.
        from ..analysis.irverify import debug_verify

        debug_verify(cs, ep)
    return ep


def _seg_until_vec(vec, first, k, n, a, b, thr):
    """Vectorised :func:`_seg_until_hot` over ``vec`` (the weights of
    tids ``first..n-1``); bit-identical results.

    The finish-time prefix is nondecreasing (weights are validated
    nonnegative, and IEEE addition of a nonnegative term never rounds
    below the base), so the first crossing is a ``searchsorted``: the
    insertion point counts exactly the finishes strictly below ``thr``.
    """
    wsarr, bufa, bufb = vec
    off = k - first
    nk = n - k
    acca = bufa[: nk + 1]
    acca[0] = a
    acca[1:] = wsarr[off:]
    np.add.accumulate(acca, out=acca)
    j = int(np.searchsorted(acca[1:], thr, side="left"))
    e = j + 1 if j < nk else nk  # the crossing task itself executes
    accb = bufb[: e + 1]
    accb[0] = b
    accb[1:] = wsarr[off : off + e]
    np.add.accumulate(accb, out=accb)
    lastf = float(acca[j]) if j > 0 else a
    return float(acca[e]), float(accb[e]), k + j, lastf


def _seg_until_hot(weight, k, n, a, b, thr):
    """Checked silent-segment kernel.

    Executes tids ``k..n-1`` sequentially from time ``a``; stops after
    executing the first task whose finish crosses ``thr`` (its
    completion must go through the event heap).  Returns the new
    ``(avail, busy, crossing-tid, last-inline-finish)``; a crossing
    tid of ``n`` means the whole segment completed inline.
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

    Mirrors :meth:`Simulator._run_interpreted` action-for-action (see
    the module docstring's exactness contract); returns a
    :class:`~repro.machine.simulator.SimResult` with
    ``engine="compiled"``.
    """
    from .simulator import ProcessorStats, SimResult

    cs = sim.compiled
    spec = sim.spec
    ep = get_exec_plan(
        cs, sim.capacity, spec, sim.memory_managed, sim.preknown_addresses
    )
    lo = cs._lowered
    nprocs = lo.num_procs
    nobjects = lo.num_objects
    capacity = sim.capacity
    preknown = ep.preknown
    managed_check = ep.managed_check

    # Static tables as locals (closure lookups beat attribute lookups).
    steps = ep.steps
    proc_start, weight = lo.proc_start, lo.weight
    od_ptr, os_ptr, cons_ptr = lo.od_ptr, lo.os_ptr, lo.cons_ptr
    od_mk, od_ak = lo.od_mk, lo.od_ak
    od_ok0, od_ow = lo.od_ok0, lo.od_ow
    os_sk, cons_mk = lo.os_sk, lo.cons_mk
    mk_dest, mk_oid, mk_uname = lo.mk_dest, lo.mk_oid, lo.mk_uname
    wait_ptr, wait_tid = lo.wait_ptr, lo.wait_tid
    grp_of, grp_ptr, grp_mk = lo.grp_of, lo.grp_ptr, lo.grp_mk
    sk_dest = lo.sk_dest
    swait_ptr, swait_tid = lo.swait_ptr, lo.swait_tid
    mf_oid, mf_grp, ma_oid = ep.mf_oid, ep.mf_grp, ep.ma_oid
    pkg_src, pkg_dst = ep.pkg_src, ep.pkg_dst
    pkg_cost = ep.pkg_cost
    pkg_ak_ptr, pkg_ak = ep.pkg_ak_ptr, ep.pkg_ak
    od_net, od_nic = ep.od_net, ep.od_nic
    osz = lo.obj_size
    obj_name = lo.obj_name
    send_oh, put_lat, ra_cost = ep.send_oh, ep.put_lat, ep.ra_cost
    nic_serialize = ep.nic_serialize
    heappush, heappop = heapq.heappush, heapq.heappop

    # --- mutable run-local state --------------------------------------
    state = [_REC] * nprocs
    sp = [0] * nprocs  # current step index per processor
    nt = [0] * nprocs  # completed tasks per processor (== idx[q])
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
    nsteps = [len(s) for s in steps]

    pending = lo.pending0.copy()
    need = lo.mk_need0.copy()
    arrived = bytearray(lo.num_mk)
    sync_arr = bytearray(lo.num_sk)
    known = (
        bytearray(b"\x01" * lo.num_ak) if ep.known_all
        else bytearray(lo.num_ak)
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
    # volatile span — same order and same error messages as the
    # interpreted engine's ObjectAllocator.
    for q in range(nprocs):
        pb = lo.perm_bytes[q]
        if pb:
            if pb > capacity:
                raise MemoryError_(
                    f"allocating '<permanent>' ({pb} B) exceeds capacity "
                    f"({used[q]}/{capacity} B used)"
                )
            used[q] = pb
            apk[q] = pb
    if not ep.memory_managed:
        for q in range(nprocs):
            u = used[q]
            base = q * nobjects
            for oid in lo.span_oids[q]:
                if allocated[base + oid]:
                    raise MemoryError_(
                        f"object {obj_name[oid]!r} is already allocated"
                    )
                sz = osz[oid]
                if u + sz > capacity:
                    raise MemoryError_(
                        f"allocating {obj_name[oid]!r} ({sz} B) exceeds "
                        f"capacity ({u}/{capacity} B used)"
                    )
                allocated[base + oid] = 1
                u += sz
            used[q] = u
            if u > apk[q]:
                apk[q] = u

    events: list[tuple] = []
    seq = 0
    last_seq = -1
    now = 0.0
    booting = True

    def push(t: float, code: int) -> None:
        # Same (time, seq) contract as the interpreted post() — see the
        # simulator module docstring; asserted for engine parity.
        nonlocal seq, last_seq
        assert seq > last_seq, (
            f"event seq must be strictly monotone ({seq} <= {last_seq})"
        )
        assert t >= now, (
            f"event scheduled in the past (t={t!r} < now={now!r})"
        )
        last_seq = seq
        heappush(events, (t, seq, code))
        seq += 1

    def charge(q: int, t: float, cost: float) -> float:
        a = avail[q]
        if a < t:
            a = t
        end = a + cost
        avail[q] = end
        over[q] += cost
        return end

    def _version_name_at(q: int, oid: int) -> Optional[str]:
        """current_version[m] as the interpreted engine would see it at
        a dispatch on ``q`` after ``nt[q]`` completions (cold path)."""
        last = None
        for pos, uname in lo.writes_by_po.get((q, oid), ()):
            if pos < nt[q]:
                last = uname
            else:
                break
        return last

    def _raise_version(q: int, od: int):
        oid = lo.od_oid[od]
        raise DataConsistencyError(
            f"P{q} sending {obj_name[oid]!r} version "
            f"{_version_name_at(q, oid)!r} for an edge requiring version "
            f"{lo.od_uname[od]!r}"
        )

    def dispatch(q: int, od: int, t: float) -> None:
        if not od_ok0[od] or nt[q] > od_ow[od]:
            _raise_version(q, od)
        t2 = charge(q, t, send_oh)
        dmsg[q] += 1
        if nic_serialize:
            nf = nic_free[q]
            start = nf if nf >= t2 else t2
            nic_free[q] = start + od_nic[od]
            arrive = start + od_net[od]
        else:
            arrive = t2 + od_net[od]
        push(arrive, _DATA_BASE | od_mk[od])

    def ra(q: int, t: float) -> None:
        if inbox_ct[q]:
            row = inbox_row[q]
            for src in range(nprocs):
                k = row[src]
                if k < 0:
                    continue
                row[src] = -1
                i = pkg_ak_ptr[k]
                hi = pkg_ak_ptr[k + 1]
                while i < hi:
                    known[pkg_ak[i]] = 1
                    i += 1
                pread[q] += 1
                charge(q, t, ra_cost)
                a = avail[q]
                start = a if a >= t else t
                push(start + put_lat, _SLOT_BASE | (src * nprocs + q))
            inbox_ct[q] = 0
        if suspended[q]:
            still = []
            ready = []
            for od in suspended[q]:
                if known[od_ak[od]]:
                    ready.append(od)
                else:
                    still.append(od)
            suspended[q] = still
            for od in ready:
                a = avail[q]
                dispatch(q, od, a if a >= t else t)

    def try_send(q: int, t: float) -> bool:
        still = []
        for k in pending_pkgs[q]:
            dst = pkg_dst[k]
            if slot[q * nprocs + dst]:
                still.append(k)
                continue
            slot[q * nprocs + dst] = 1
            t2 = charge(q, t, pkg_cost[k])
            psent[q] += 1
            push(t2 + put_lat, _ADDR_BASE | k)
        pending_pkgs[q] = still
        return not still

    def exec_map(q: int, step: tuple, t: float) -> None:
        nmaps[q] += 1
        charge(q, t, step[1])
        u = used[q]
        base = q * nobjects
        i = step[2]
        hi = step[3]
        while i < hi:
            oid = mf_oid[i]
            if not allocated[base + oid]:
                raise MemoryError_(
                    f"freeing unallocated object {obj_name[oid]!r}"
                )
            allocated[base + oid] = 0
            u -= osz[oid]
            gid = mf_grp[i]
            if gid >= 0:
                j = grp_ptr[gid]
                ghi = grp_ptr[gid + 1]
                while j < ghi:
                    arrived[grp_mk[j]] = 0
                    j += 1
            i += 1
        i = step[4]
        hi = step[5]
        while i < hi:
            oid = ma_oid[i]
            if allocated[base + oid]:
                raise MemoryError_(
                    f"object {obj_name[oid]!r} is already allocated"
                )
            sz = osz[oid]
            if u + sz > capacity:
                raise MemoryError_(
                    f"allocating {obj_name[oid]!r} ({sz} B) exceeds "
                    f"capacity ({u}/{capacity} B used)"
                )
            allocated[base + oid] = 1
            u += sz
            if u > apk[q]:
                apk[q] = u
            i += 1
        used[q] = u
        if apk[q] > peakmem[q]:
            peakmem[q] = apk[q]
        if not preknown:
            pp = pending_pkgs[q]
            k = step[6]
            hi = step[7]
            while k < hi:
                pp.append(k)
                k += 1
            map_pending[q] = 1

    def finish_noisy(q: int, tid: int, t: float) -> None:
        nt[q] += 1
        ltf[q] = t
        i = cons_ptr[tid]
        hi = cons_ptr[tid + 1]
        while i < hi:
            need[cons_mk[i]] -= 1
            i += 1
        i = od_ptr[tid]
        hi = od_ptr[tid + 1]
        while i < hi:
            if known[od_ak[i]]:
                dispatch(q, i, t)
            else:
                suspended[q].append(i)
                susp_ct[q] += 1
            i += 1
        i = os_ptr[tid]
        hi = os_ptr[tid + 1]
        while i < hi:
            t2 = charge(q, t, send_oh)
            smsg[q] += 1
            push(t2 + put_lat, _SYNC_BASE | os_sk[i])
            i += 1
        sp[q] += 1

    def advance(q: int, t: float) -> None:
        nonlocal finished
        st = state[q]
        if st == _EXE or st == _DONE:
            return
        if inbox_ct[q] or suspended[q]:
            ra(q, t)
        steps_q = steps[q]
        ns = nsteps[q]
        while True:
            if map_pending[q]:
                a = avail[q]
                if not try_send(q, a if a >= t else t):
                    state[q] = _MAP
                    return
                map_pending[q] = 0
            i = sp[q]
            if i >= ns:
                if suspended[q] or pending_pkgs[q]:
                    state[q] = _END
                    return
                if state[q] != _DONE:
                    state[q] = _DONE
                    a = avail[q]
                    fin[q] = a if a >= t else t
                    finished += 1
                return
            step = steps_q[i]
            op = step[0]
            if op == _MAP_OP:
                exec_map(q, step, t)
                sp[q] = i + 1
                continue
            if op == _SEG_OP:
                n = step[2]
                k = proc_start[q] + nt[q]  # next tid of the run
                a = avail[q]
                if a < t:
                    a = t
                if booting:
                    thr = _NEG_INF
                else:
                    thr = events[0][0] if events else _INF
                vec = step[3]
                if vec is not None and n - k >= _SEG_VEC_MIN:
                    a2, b2, j, lastf = _seg_until_vec(
                        vec, step[1], k, n, a, busy[q], thr
                    )
                else:
                    a2, b2, j, lastf = _seg_until_hot(
                        weight, k, n, a, busy[q], thr
                    )
                busy[q] = b2
                avail[q] = a2
                nc = j - k
                if nc:
                    nt[q] += nc
                    ltf[q] = lastf
                if j < n:
                    # Task j executed; its completion crosses the event
                    # horizon and must pop through the heap.
                    state[q] = _EXE
                    push(a2, _TASK_BASE | q)
                    return
                sp[q] = i + 1
                continue
            # _TASK_OP
            tid = step[1]
            if pending[tid] > 0:
                state[q] = _REC
                return
            w = weight[tid]
            a = avail[q]
            if a < t:
                a = t
            busy[q] += w
            f = a + w
            avail[q] = f
            if booting or (events and f >= events[0][0]):
                state[q] = _EXE
                push(f, _TASK_BASE | q)
                return
            # Inline completion: f is strictly before every queued
            # event, so the interpreted engine would pop exactly this
            # completion next.  The interpreted re-entry ra() is a
            # provable no-op here: no pops happened since advance
            # entry, so the inbox is still empty and any send just
            # suspended has an unknown address by definition.
            finish_noisy(q, tid, f)
            a = avail[q]
            t = a if a >= f else f

    # --- bootstrap (push-only: see module docstring) -------------------
    for q in range(nprocs):
        advance(q, 0.0)
    booting = False

    # --- event loop ---------------------------------------------------
    while events:
        ev = heappop(events)
        t = ev[0]
        now = t
        code = ev[2]
        kind = code >> _SHIFT
        arg = code & _ARG_MASK
        if kind == 0:  # TASK_DONE on processor arg
            q = arg
            step = steps[q][sp[q]]
            if step[0] == _SEG_OP:
                nt[q] += 1
                ltf[q] = t
                if proc_start[q] + nt[q] >= step[2]:
                    sp[q] += 1
            else:
                finish_noisy(q, step[1], t)
            state[q] = _REC
            a = avail[q]
            advance(q, a if a >= t else t)
        elif kind == 1:  # DATA_ARRIVE of message key arg
            mk = arg
            dest = mk_dest[mk]
            if managed_check and not allocated[dest * nobjects + mk_oid[mk]]:
                raise SimulationError(
                    f"data for {obj_name[mk_oid[mk]]!r} arrived at P{dest} "
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
                                f"P{dest} received {obj_name[mk_oid[mk]]!r}/"
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
            st = state[dest]
            if st == _REC or st == _MAP or st == _END:
                advance(dest, t)
        elif kind == 2:  # SYNC_ARRIVE of sync key arg
            sk = arg
            dest = sk_dest[sk]
            if not sync_arr[sk]:
                sync_arr[sk] = 1
                i = swait_ptr[sk]
                hi = swait_ptr[sk + 1]
                while i < hi:
                    pending[swait_tid[i]] -= 1
                    i += 1
            st = state[dest]
            if st == _REC or st == _MAP or st == _END:
                advance(dest, t)
        elif kind == 3:  # ADDR_ARRIVE of package arg
            k = arg
            dst = pkg_dst[k]
            src = pkg_src[k]
            row = inbox_row[dst]
            if row[src] < 0:
                inbox_ct[dst] += 1
            row[src] = k
            st = state[dst]
            if st == _REC or st == _MAP or st == _END:
                advance(dst, t)
            elif st == _DONE:
                ra(dst, t)
        else:  # SLOT_FREE: arg = src * P + dst
            slot[arg] = 0
            src = arg // nprocs
            st = state[src]
            if st == _REC or st == _MAP or st == _END:
                advance(src, t)

    # --- verdicts (exact interpreted parity) --------------------------
    completed = 0
    for q in range(nprocs):
        completed += nt[q]
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
    return SimResult(
        parallel_time=pt,
        task_finish_time=max(ltf) if ltf else 0.0,
        stats=stats,
        capacity=capacity,
        memory_managed=sim.memory_managed,
        plan=sim.plan,
        trace=None,
        telemetry=None,
        schedule_label=sim.schedule_label,
        engine="compiled",
    )


def _raise_deadlock(
    sim, lo, ep, state, nt, completed, arrived, sync_arr,
    suspended, pending_pkgs, slot, known,
):
    """Reconstruct the interpreted engine's DeadlockError verbatim."""
    cs = sim.compiled
    sched = cs.schedule
    nprocs = lo.num_procs
    blocked = {
        q: _STATE_NAMES[state[q]]
        for q in range(nprocs)
        if state[q] != _DONE
    }
    err = DeadlockError(blocked, completed, sim.g.num_tasks)
    details: dict[int, str] = {}
    wait_for: dict[int, set[int]] = {}
    assignment = sched.assignment
    trigger = cs.trigger
    mk_index, sk_index = lo.mk_index, lo.sk_index
    for q in range(nprocs):
        if state[q] == _DONE:
            continue
        waits = wait_for.setdefault(q, set())
        order = sched.orders[q]
        if nt[q] < len(order):
            task = order[nt[q]]
            missing = []
            for req in cs.needs[task]:
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
                (lo.obj_name[lo.od_oid[od]], lo.od_uname[od], lo.od_dest[od],
                 lo.od_nbytes[od])
                for od in suspended[q]
            ]
            pkgs = [
                (ep.pkg_dst[k], list(ep.pkg_objs[k]))
                for k in pending_pkgs[q]
            ]
            details[q] = f"END suspended={susp} pending_pkgs={pkgs}"
        for k in pending_pkgs[q]:
            if slot[q * nprocs + ep.pkg_dst[k]]:
                waits.add(ep.pkg_dst[k])
        for od in suspended[q]:
            if not known[lo.od_ak[od]]:
                waits.add(lo.od_dest[od])
        waits.discard(q)
    err.details = details
    err.wait_for = wait_for
    raise err

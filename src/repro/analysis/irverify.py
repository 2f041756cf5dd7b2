"""LLVM-verifier-style pass over the compiled engine's lowered IR.

The array engine, the default engine, lowers a ``CompiledSchedule`` in
three levels (see :mod:`repro.machine.compiled`): a
:class:`~repro.machine.compiled.MappingLowering` (message, sync and
address keys and their CSR rows, shared by every schedule of one
mapping), a :class:`~repro.machine.compiled.LoweredSchedule` (the
position space of one schedule: permutation, weights, silent-run ends,
version flags) and per capacity the MAP plan's
:class:`~repro.core.maps.MapTables`.  The differential oracle exercises them only
dynamically; a malformed lowering that happens to simulate correctly on
current workloads would be invisible.  This module checks the IR
*structurally*, the way ``llvm::verifyModule`` checks a module:

``SA501`` **csr-well-formed**
    every pointer/index array pair is a valid CSR (monotone pointers,
    indices inside their id space) and the entity counts agree.
``SA502`` **id-space-bijective**
    positions/tids/oids/mks/sks/groups invert exactly to the schedule's
    tasks, the graph's objects and the interpreted engine's message keys
    (the tasks through ``tid_at``, the table the run walks), and
    ``grp_at``/``od_grp`` name each message's ``(dest, object)`` group
    and ``grp_src`` its sender.
``SA503`` **version-table-consistent**
    the static dispatch-version flags (``od_ok0``/``od_ow``), stale
    counters (``mk_need0``), pending counts, waiter lists and outgoing
    message rows agree with an independent recomputation from the
    reference's name tables (:func:`~repro.machine.reference.name_tables`).
``SA504`` **opcode-stream-valid**
    the silent-run ends cover each processor's order exactly (a run
    never swallows a task with inputs, messages or consumptions), and
    each processor's MAP positions increase strictly inside its order,
    end in its sentinel and index the plan's MAP tables in range.
``SA505`` **cost-table-sane**
    weights, sizes and precomputed message costs are finite,
    non-negative and reproduce the cost expressions of the spec the
    caller names.

Every pass reads the same list objects the run loop indexes, each from
the level that owns it (``lo`` per schedule, ``lo.mapping`` per
mapping, the :class:`~repro.core.index.GraphIndex` for names and
sizes), so a corruption the verifier reports is one the engine would
run.

The verifier must *never* crash on corrupt IR: the SA501 structural
pass runs first and gates the deeper passes, and every pass is wrapped
so an unexpected exception becomes a diagnostic under that pass's code
instead of an escape.  Findings are capped per pass (:data:`MAX_FINDINGS`)
so a systematically broken table does not flood the report.

Entry points: :func:`verify_lowering` / :func:`verify_exec_plan`
(diagnostic lists), :func:`verify_report` (an
:class:`~repro.analysis.engine.AnalysisReport` for the CLI formats) and
:func:`debug_verify` (raises on errors; hooked into the engine's debug
path behind the ``REPRO_VERIFY_IR`` environment variable).
"""

from __future__ import annotations

import functools
from typing import Optional

from ..errors import NonExecutableScheduleError, SimulationError
from ..machine.compiled import _NO_OVERWRITE, get_exec_plan, lower_schedule
from .diagnostics import Diagnostic

__all__ = [
    "MAX_FINDINGS",
    "debug_verify",
    "verify_exec_plan",
    "verify_lowering",
    "verify_report",
]

#: Per-pass finding cap; a corrupt table yields a representative sample,
#: not one diagnostic per row.
MAX_FINDINGS = 25


def _guard(code: str):
    """Convert an unexpected crash of one pass into its own finding."""

    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kw) -> list[Diagnostic]:
            try:
                return fn(*args, **kw)
            except Exception as err:  # corrupt IR must not escape
                return [Diagnostic.of(
                    code,
                    f"verifier pass {fn.__name__} crashed on corrupt IR: "
                    f"{err!r}",
                )]
        return run

    return deco


# ----------------------------------------------------------------------
# SA501: CSR well-formedness
# ----------------------------------------------------------------------


def _check_csr(diags, name, ptr, idx, rows, space, space_name) -> None:
    if len(diags) >= MAX_FINDINGS:
        return
    if len(ptr) != rows + 1:
        diags.append(Diagnostic.of(
            "SA501",
            f"{name}: pointer array has {len(ptr)} entries for {rows} rows "
            f"(want {rows + 1})",
        ))
        return
    if ptr and ptr[0] != 0:
        diags.append(Diagnostic.of("SA501", f"{name}: ptr[0] = {ptr[0]} != 0"))
    for i in range(1, len(ptr)):
        if ptr[i] < ptr[i - 1]:
            diags.append(Diagnostic.of(
                "SA501",
                f"{name}: ptr[{i}] = {ptr[i]} < ptr[{i - 1}] = {ptr[i - 1]} "
                "(non-monotone)",
            ))
            return
    if ptr and ptr[-1] != len(idx):
        diags.append(Diagnostic.of(
            "SA501",
            f"{name}: ptr[-1] = {ptr[-1]} but index array holds "
            f"{len(idx)} entries",
        ))
    for j, v in enumerate(idx):
        if not 0 <= v < space:
            diags.append(Diagnostic.of(
                "SA501",
                f"{name}: index[{j}] = {v} outside {space_name} "
                f"[0, {space})",
            ))
            if len(diags) >= MAX_FINDINGS:
                return


@_guard("SA501")
def _csr_pass(lo) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    ml = lo.mapping
    nt, nm, nsk = lo.num_tasks, ml.num_mk, ml.num_sk
    nprocs = ml.num_procs
    _check_csr(diags, "proc_start", lo.proc_start, [0] * nt,
               nprocs, nt + 1, "position-range")
    _check_csr(diags, "od_ptr/od_mk", ml.od_ptr, ml.od_mk, nt, nm, "mk-space")
    _check_csr(diags, "od_ptr/od_grp", ml.od_ptr, ml.od_grp, nt, ml.num_grp,
               "group-space")
    _check_csr(diags, "od_ptr/od_dest", ml.od_ptr, ml.od_dest, nt,
               nprocs, "proc-space")
    _check_csr(diags, "od_ptr/od_oid", ml.od_ptr, ml.od_oid, nt,
               ml.num_objects, "object-space")
    _check_csr(diags, "os_ptr/os_sk", ml.os_ptr, ml.os_sk, nt, nsk,
               "sk-space")
    _check_csr(diags, "cons_ptr/cons_mk", ml.cons_ptr, ml.cons_mk, nt, nm,
               "mk-space")
    _check_csr(diags, "wait_ptr/wait_tid", ml.wait_ptr, ml.wait_tid, nm, nt,
               "tid-space")
    _check_csr(diags, "swait_ptr/swait_tid", ml.swait_ptr, ml.swait_tid,
               nsk, nt, "tid-space")
    _check_csr(diags, "grp_ptr/grp_mk", ml.grp_ptr, ml.grp_mk, ml.num_grp,
               nm, "mk-space")
    for name, table, space in (
        ("tid_at", lo.tid_at, nt), ("od_row", lo.od_row, nt),
        ("mk_dest", ml.mk_dest, nprocs),
        ("mk_src", ml.mk_src, nprocs),
        ("mk_oid", ml.mk_oid, ml.num_objects),
        ("sk_dest", ml.sk_dest, nprocs),
    ):
        bad = [j for j, v in enumerate(table) if not 0 <= v < space]
        if bad:
            diags.append(Diagnostic.of(
                "SA501",
                f"{name}: index[{bad[0]}] = {table[bad[0]]} outside "
                f"[0, {space}) ({len(bad)} such entries)",
            ))
    return diags[:MAX_FINDINGS]


# ----------------------------------------------------------------------
# SA502: id-space bijectivity back to the schedule / graph
# ----------------------------------------------------------------------


@_guard("SA502")
def _bijection_pass(cs, lo) -> list[Diagnostic]:
    from ..machine.reference import name_tables

    diags: list[Diagnostic] = []
    nt = name_tables(cs)
    g, sched = cs.graph, cs.schedule
    ml = lo.mapping
    names, obj_name = ml.gi.names, ml.gi.object_names

    def add(msg: str, **kw) -> bool:
        diags.append(Diagnostic.of("SA502", msg, **kw))
        return len(diags) >= MAX_FINDINGS

    if lo.num_tasks != g.num_tasks:
        add(f"{lo.num_tasks} lowered tasks for {g.num_tasks} graph tasks")
    flat = [t for order in sched.orders for t in order]
    if [names[i] for i in lo.tid_at] != flat:
        add("tid_at does not map the positions to the flattened processor "
            "orders")
    for q in range(ml.num_procs):
        lob, hib = lo.proc_start[q], lo.proc_start[q + 1]
        if hib - lob != len(sched.orders[q]):
            if add(f"position range [{lob}, {hib}) disagrees with the "
                   f"order length {len(sched.orders[q])}", proc=q):
                return diags

    if ml.num_objects != g.num_objects:
        add(f"{ml.num_objects} lowered objects for {g.num_objects} "
            "graph objects")
    for oid, name in enumerate(sorted(o.name for o in g.objects())):
        if oid >= len(obj_name) or obj_name[oid] != name:
            if add(f"object_names[{oid}] is not the object {name!r}",
                   obj=name):
                return diags

    # Message keys: one mk per interpreted (dest, object, unit) key.
    keys = {
        (d, obj_name[o], u): mk
        for mk, (d, o, u) in enumerate(zip(ml.mk_dest, ml.mk_oid,
                                           ml.mk_uname))
    }
    if len(keys) != ml.num_mk:
        add(f"{ml.num_mk - len(keys)} mk keys are duplicated")
    bad = [mk for mk, (s, u) in enumerate(zip(ml.mk_src, ml.mk_uname))
           if s != sched.assignment[nt.trigger[u]]]
    if bad:
        add(f"mk_src[{bad[0]}] = {ml.mk_src[bad[0]]} is not the processor "
            f"of unit {ml.mk_uname[bad[0]]!r} ({len(bad)} such mks)")
    want = {(d, m, u) for d, tbl in enumerate(nt.data_waiters)
            for (m, u) in tbl}
    if set(keys) != want:
        bad = sorted(set(keys) ^ want)[:3]
        add(f"mk keys do not round-trip the schedule's data keys "
            f"(e.g. {bad})")
    skeys = {(names[s], d) for s, d in zip(ml.sk_src, ml.sk_dest)}
    if len(skeys) != ml.num_sk:
        add(f"{ml.num_sk - len(skeys)} sk keys are duplicated")
    want = {(u, d) for d, tbl in enumerate(nt.sync_waiters) for u in tbl}
    if skeys != want:
        bad = sorted(skeys ^ want)[:3]
        add(f"sk keys do not round-trip the schedule's sync keys "
            f"(e.g. {bad})")

    # group partition: every mk appears exactly once, under its group.
    seen = [0] * ml.num_mk
    for gid in range(ml.num_grp):
        for j in range(ml.grp_ptr[gid], ml.grp_ptr[gid + 1]):
            mk = ml.grp_mk[j]
            seen[mk] += 1
            if ml.grp_of[mk] != gid:
                if add(f"mk {mk} listed under group {gid} but grp_of says "
                       f"{ml.grp_of[mk]}"):
                    return diags
    bad = [mk for mk, n in enumerate(seen) if n != 1]
    if bad:
        add(f"groups do not partition the mk space (mks {bad[:5]} appear "
            "!= once)")
    # grp_at and od_grp name each message's (dest, object) group, one
    # group per pair, and grp_src its sender.
    at = [-1] * (ml.num_procs * ml.num_objects)
    for d, o, g in zip(ml.mk_dest, ml.mk_oid, ml.grp_of):
        at[d * ml.num_objects + o] = g
    if (at != ml.grp_at or len(at) - at.count(-1) != ml.num_grp
            or [ml.grp_of[mk] for mk in ml.od_mk] != ml.od_grp
            or [ml.grp_src[g] for g in ml.grp_of] != ml.mk_src):
        add("grp_at, od_grp or grp_src does not name each message's group")
    return diags[:MAX_FINDINGS]


# ----------------------------------------------------------------------
# SA503: version tables / wait-for consistency
# ----------------------------------------------------------------------


@_guard("SA503")
def _version_pass(cs, lo) -> list[Diagnostic]:
    from ..machine.reference import name_tables

    diags: list[Diagnostic] = []
    nt = name_tables(cs)

    def add(msg: str, **kw) -> bool:
        diags.append(Diagnostic.of("SA503", msg, **kw))
        return len(diags) >= MAX_FINDINGS

    ml = lo.mapping
    gi = ml.gi
    names, tid, obj_name = gi.names, gi.tid, gi.object_names
    for i, name in enumerate(names):
        want = nt.pending0.get(name, 0)
        if ml.pending0[i] != want:
            if add(f"pending0[{i}] = {ml.pending0[i]} but the "
                   f"schedule needs {want} inputs", task=name):
                return diags
    for mk in range(ml.num_mk):
        dest, m, unit = ml.mk_dest[mk], obj_name[ml.mk_oid[mk]], \
            ml.mk_uname[mk]
        want_need = nt.need_count0[dest].get((m, unit))
        if ml.mk_need0[mk] != want_need:
            if add(f"mk_need0[{mk}] = {ml.mk_need0[mk]} but "
                   f"{want_need} stale copies are outstanding",
                   obj=m, proc=dest):
                return diags
        want_wait = sorted(
            tid[w] for w in nt.data_waiters[dest].get((m, unit), ()))
        got_wait = sorted(ml.wait_tid[ml.wait_ptr[mk]:ml.wait_ptr[mk + 1]])
        if want_wait != got_wait:
            if add(f"waiter list of mk {mk} disagrees with data_waiters",
                   obj=m, proc=dest):
                return diags
    for sk in range(ml.num_sk):
        u, dest = names[ml.sk_src[sk]], ml.sk_dest[sk]
        want_wait = sorted(tid[w] for w in nt.sync_waiters[dest].get(u, ()))
        got_wait = sorted(ml.swait_tid[ml.swait_ptr[sk]:ml.swait_ptr[sk + 1]])
        if want_wait != got_wait:
            if add(f"waiter list of sk {sk} disagrees with sync_waiters",
                   proc=dest):
                return diags

    # Outgoing rows, in send order, against the trigger tables.
    for i in lo.tid_at:
        name = names[i]
        r = lo.od_row[i]
        got = [
            (obj_name[ml.od_oid[od]], ml.od_uname[od], ml.od_dest[od],
             ml.od_nbytes[od])
            for od in range(ml.od_ptr[r], ml.od_ptr[r + 1])
        ]
        if got != list(nt.out_data.get(name, ())):
            if add(f"data messages sent after {name!r} disagree with the "
                   "schedule's triggers", task=name):
                return diags
        got = [
            (names[ml.sk_src[ml.os_sk[j]]], ml.sk_dest[ml.os_sk[j]])
            for j in range(ml.os_ptr[i], ml.os_ptr[i + 1])
        ]
        if got != list(nt.out_sync.get(name, ())):
            if add(f"sync messages sent after {name!r} disagree with "
                   "out_sync", task=name):
                return diags

    # Independent recomputation of the static dispatch-version flags.
    for q in range(ml.num_procs):
        ver: dict[str, str] = {}
        writes: dict[str, list[tuple[int, str]]] = {}
        lob, hib = lo.proc_start[q], lo.proc_start[q + 1]
        for pos in range(lob, hib):
            name = names[lo.tid_at[pos]]
            for m, uu in nt.write_version[name]:
                ver[m] = uu
                writes.setdefault(m, []).append((pos, uu))
            r = lo.od_row[lo.tid_at[pos]]
            for od in range(ml.od_ptr[r], ml.od_ptr[r + 1]):
                m = obj_name[ml.od_oid[od]]
                ok = ver.get(m) == ml.od_uname[od]
                if lo.od_ok0[od] != ok:
                    if add(f"od_ok0[{od}] = {lo.od_ok0[od]} but the "
                           f"order scan proves {ok}", proc=q, task=name,
                           obj=m):
                        return diags
        for pos in range(lob, hib):
            r = lo.od_row[lo.tid_at[pos]]
            for od in range(ml.od_ptr[r], ml.od_ptr[r + 1]):
                req = ml.od_uname[od]
                m = obj_name[ml.od_oid[od]]
                ow = _NO_OVERWRITE
                for wpos, uu in writes.get(m, ()):
                    if wpos > pos and uu != req:
                        ow = wpos
                        break
                if lo.od_ow[od] != ow:
                    if add(f"od_ow[{od}] = {lo.od_ow[od]} but the first "
                           f"invalidating overwrite is at {ow}",
                           proc=q, obj=m):
                        return diags
    return diags[:MAX_FINDINGS]


# ----------------------------------------------------------------------
# SA504: opcode-stream validity (the run's MapTables)
# ----------------------------------------------------------------------


@_guard("SA504")
def _opcode_pass(lo, ep) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    def add(msg: str, **kw) -> bool:
        diags.append(Diagnostic.of("SA504", msg, **kw))
        return len(diags) >= MAX_FINDINGS

    ml = lo.mapping
    names = ml.gi.names
    nprocs = ml.num_procs

    def noisy(i: int) -> bool:
        r = lo.od_row[i]
        return (ml.pending0[i] > 0
                or ml.od_ptr[r] != ml.od_ptr[r + 1]
                or ml.os_ptr[i] != ml.os_ptr[i + 1]
                or ml.cons_ptr[i] != ml.cons_ptr[i + 1])

    # Silent-run ends: run_end[pos] is the end of the silent run from
    # pos (the next noisy position or the end of the order), -1 at a
    # noisy task.
    if len(lo.run_end) != lo.num_tasks:
        add(f"run_end has {len(lo.run_end)} entries for {lo.num_tasks} "
            "positions")
        return diags
    for q in range(nprocs):
        start, nxt = lo.proc_start[q], lo.proc_start[q + 1]
        for pos in range(nxt - 1, start - 1, -1):
            want = -1 if noisy(lo.tid_at[pos]) else nxt
            if want < 0:
                nxt = pos
            if lo.run_end[pos] != want:
                kind = "noisy task" if want < 0 else "silent run"
                name = names[lo.tid_at[pos]]
                if add(f"run_end[{pos}] = {lo.run_end[pos]} but the "
                       f"{kind} at {name!r} wants {want}",
                       proc=q, task=name, position=pos - start):
                    return diags
    if ep is None:
        return diags[:MAX_FINDINGS]

    # MAP positions: strictly increasing inside the order, then the
    # processor's end-of-order sentinel.
    nmaps, npkgs = len(ep.map_pos), len(ep.pkg_dst)
    for name, ptr, table, rows in (
            ("mf_ptr", ep.mf_ptr, ep.mf_oid, nmaps),
            ("ma_ptr", ep.ma_ptr, ep.ma_oid, nmaps),
            ("mp_ptr", ep.mp_ptr, ep.pkg_dst, nmaps),
            ("pkg_ptr", ep.pkg_ptr, ep.pkg_oid, npkgs)):
        if (len(ptr) != rows + 1 or ptr[0] != 0 or ptr[-1] != len(table)
                or any(ptr[k] > ptr[k + 1] for k in range(rows))):
            if add(f"MAP ranges {name} do not index their table"):
                return diags
    first = ep.map_first
    if (len(first) != nprocs + 1 or first[0] != 0 or first[-1] != nmaps
            or len(ep.pkg_src) != npkgs):
        add(f"{len(first) - 1} MAP lists for {nprocs} processors")
        return diags
    for q in range(nprocs):
        start, end = lo.proc_start[q], lo.proc_start[q + 1]
        pos = [start - 1] + ep.map_pos[first[q]:first[q + 1]]
        bad = [j for j in range(1, len(pos) - 1)
               if not pos[j - 1] < pos[j] < end]
        if bad:
            k = first[q] + bad[0] - 1
            if add(f"MAP {k} at position {ep.map_pos[k]} does not follow "
                   f"the previous MAP of P{q} inside [{start}, {end})", proc=q):
                return diags
        if len(pos) < 2 or pos[-1] != end:
            if add(f"P{q}'s MAP list does not end in its sentinel at {end}",
                   proc=q):
                return diags
    return diags[:MAX_FINDINGS]


# ----------------------------------------------------------------------
# SA505: cost-table sanity
# ----------------------------------------------------------------------


def _finite_nonneg(x) -> bool:
    return x == x and x >= 0.0 and x != float("inf")


@_guard("SA505")
def _cost_pass(lo, ep, spec) -> list[Diagnostic]:
    """``ep`` and ``spec`` (both or neither): also check the mapping's
    message costs under ``spec``."""
    diags: list[Diagnostic] = []
    ml = lo.mapping
    gi = ml.gi

    def add(msg: str, **kw) -> bool:
        diags.append(Diagnostic.of("SA505", msg, **kw))
        return len(diags) >= MAX_FINDINGS

    for pos, w in enumerate(lo.weight):
        if not _finite_nonneg(w):
            if add(f"task weight[{pos}] = {w!r} is not finite non-negative",
                   task=gi.names[lo.tid_at[pos]]):
                return diags
    for oid, sz in enumerate(gi.oid_size):
        if sz < 0:
            if add(f"oid_size[{oid}] = {sz} is negative",
                   obj=gi.object_names[oid]):
                return diags
    for q, pb in enumerate(lo.perm_bytes):
        if pb < 0:
            if add(f"perm_bytes[P{q}] = {pb} is negative", proc=q):
                return diags
    for od, nb in enumerate(ml.od_nbytes):
        if nb < 0:
            if add(f"od_nbytes[{od}] = {nb} is negative"):
                return diags

    if ep is not None:
        od_net, od_nic = ml.costs(spec)
        for od, nb in enumerate(ml.od_nbytes):
            if od_net[od] != spec.message_time(nb):
                if add(f"od_net[{od}] = {od_net[od]!r} does not "
                       "reproduce spec.message_time"):
                    return diags
            if od_nic[od] != nb * spec.byte_time:
                if add(f"od_nic[{od}] = {od_nic[od]!r} does not "
                       "reproduce spec.byte_time"):
                    return diags
    return diags[:MAX_FINDINGS]


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def verify_lowering(cs) -> list[Diagnostic]:
    """Verify the spec-free lowering of ``cs`` (SA501-SA505, without
    the exec-plan parts of SA504/SA505).

    The structural SA501 pass gates the deeper passes: on a CSR that is
    not even well formed, bijectivity/version walks would chase wild
    indices, so only the structural findings are reported.
    """
    lo = lower_schedule(cs)
    diags = _csr_pass(lo)
    if diags:
        return diags
    diags += _bijection_pass(cs, lo)
    diags += _version_pass(cs, lo)
    diags += _opcode_pass(lo, None)
    diags += _cost_pass(lo, None, None)
    return diags


def verify_exec_plan(
    cs,
    capacity: int,
    spec,
    memory_managed: bool = True,
) -> list[Diagnostic]:
    """Verify the lowering *and* the MAP tables a run at ``capacity``
    reads (:func:`~repro.machine.compiled.get_exec_plan`).

    A capacity below MIN_MEM admits no MAP plan at all; the verifier
    then degrades to the lowering-level passes — the non-executability
    verdict itself belongs to the analyzer's ``SA101``, not to SA5xx.
    """
    diags = verify_lowering(cs)
    if any(d.rule == "SA501" for d in diags):
        return diags
    try:
        ep = get_exec_plan(cs, capacity, spec, memory_managed)
    except NonExecutableScheduleError:
        return diags
    lo = lower_schedule(cs)
    diags += _opcode_pass(lo, ep)
    diags += _cost_pass(lo, ep, spec)
    # the lowering-level findings were already collected once
    seen: set[tuple] = set()
    uniq = []
    for d in diags:
        key = (d.rule, d.message)
        if key not in seen:
            seen.add(key)
            uniq.append(d)
    return uniq


def verify_report(
    cs,
    capacity: Optional[int] = None,
    spec=None,
    memory_managed: bool = True,
    label: str = "",
):
    """Run the verifier and wrap the findings as an ``AnalysisReport``
    (same rendering/JSON/SARIF surface as ``analyze_schedule``)."""
    from .engine import AnalysisReport

    if capacity is not None and spec is not None:
        diags = verify_exec_plan(cs, capacity, spec, memory_managed)
        cap = capacity
    else:
        diags = verify_lowering(cs)
        cap = capacity if capacity is not None else 0
    report = AnalysisReport(
        label=label or "irverify",
        capacity=cap,
        num_procs=cs.num_procs,
    )
    report.diagnostics.extend(diags)
    return report


def debug_verify(cs, ep=None, spec=None) -> None:
    """Raise :class:`~repro.errors.SimulationError` on any IR error.

    Hooked into :func:`repro.machine.compiled.lower_schedule` /
    :func:`~repro.machine.compiled.get_exec_plan` when the
    ``REPRO_VERIFY_IR`` environment variable is set (the engine's debug
    path); ``ep`` skips re-deriving the plan the caller just built for
    ``spec``.
    """
    lo = lower_schedule(cs)
    diags = _csr_pass(lo)
    if not diags:
        diags += _bijection_pass(cs, lo)
        diags += _version_pass(cs, lo)
        diags += _opcode_pass(lo, ep)
        diags += _cost_pass(lo, ep, spec)
    errors = [d for d in diags if d.severity >= 2]
    if errors:
        body = "; ".join(str(d) for d in errors[:5])
        raise SimulationError(
            f"lowered-IR verification failed ({len(errors)} finding(s)): "
            f"{body}"
        )

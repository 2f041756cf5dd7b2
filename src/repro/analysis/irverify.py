"""LLVM-verifier-style pass over the compiled engine's lowered IR.

The array engine (ROADMAP item 1) lowers a ``CompiledSchedule`` in two
layers — :class:`~repro.machine.compiled.LoweredSchedule` (dense CSR
tables, spec/capacity-free) and :class:`~repro.machine.compiled
.ExecPlan` (per-processor SEG/TASK/MAP step programs with precomputed
costs).  Until now those layers were exercised only dynamically by the
differential oracle; a malformed lowering that happens to simulate
correctly on current workloads was invisible.  This module checks the
IR *structurally*, the way ``llvm::verifyModule`` checks a module:

``SA501`` **csr-well-formed**
    every pointer/index array pair is a valid CSR (monotone pointers,
    indices inside their id space) and the entity counts agree.
``SA502`` **id-space-bijective**
    tids/oids/mks/sks/groups invert exactly to the schedule's tasks,
    the graph's objects and the index dicts.
``SA503`` **version-table-consistent**
    the static dispatch-version flags (``od_ok0``/``od_ow``), stale
    counters (``mk_need0``), pending counts and waiter lists agree with
    an independent recomputation from the schedule's wait-for data.
``SA504`` **opcode-stream-valid**
    each processor's step program covers its tasks exactly once and in
    order (every TASK tid and SEG range continues the processor's
    order), SEG runs are genuinely silent (no remote inputs, no
    outgoing messages, no consumptions) and carry ``weight[first:end]``
    in their numpy kernel vector, and MAP ranges stay inside the plan's
    MAP tables.
``SA505`` **cost-table-sane**
    weights, sizes and precomputed message/package costs are finite,
    non-negative and reproduce the spec's cost expressions.

Every pass reads the same list objects the run loop indexes
(:class:`~repro.machine.compiled.LoweredSchedule` stores each table
once, and step programs hold tids into it, not copies), so a corruption
the verifier reports is one the engine would run.

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
from ..machine.compiled import (
    _MAP_OP,
    _NO_OVERWRITE,
    _SEG_OP,
    _TASK_OP,
    get_exec_plan,
    lower_schedule,
)
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
    nt, nm, nsk = lo.num_tasks, lo.num_mk, lo.num_sk
    _check_csr(diags, "proc_start", lo.proc_start, [0] * nt,
               lo.num_procs, nt + 1, "tid-range")
    _check_csr(diags, "od_ptr/od_mk", lo.od_ptr, lo.od_mk, nt, nm, "mk-space")
    _check_csr(diags, "od_ptr/od_ak", lo.od_ptr, lo.od_ak, nt, lo.num_ak,
               "ak-space")
    _check_csr(diags, "od_ptr/od_dest", lo.od_ptr, lo.od_dest, nt,
               lo.num_procs, "proc-space")
    _check_csr(diags, "od_ptr/od_oid", lo.od_ptr, lo.od_oid, nt,
               lo.num_objects, "object-space")
    _check_csr(diags, "os_ptr/os_sk", lo.os_ptr, lo.os_sk, nt, nsk,
               "sk-space")
    _check_csr(diags, "cons_ptr/cons_mk", lo.cons_ptr, lo.cons_mk, nt, nm,
               "mk-space")
    _check_csr(diags, "wait_ptr/wait_tid", lo.wait_ptr, lo.wait_tid, nm, nt,
               "tid-space")
    _check_csr(diags, "swait_ptr/swait_tid", lo.swait_ptr, lo.swait_tid,
               nsk, nt, "tid-space")
    _check_csr(diags, "grp_ptr/grp_mk", lo.grp_ptr, lo.grp_mk, lo.num_grp,
               nm, "mk-space")
    return diags[:MAX_FINDINGS]


# ----------------------------------------------------------------------
# SA502: id-space bijectivity back to the schedule / graph
# ----------------------------------------------------------------------


@_guard("SA502")
def _bijection_pass(cs, lo) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    g, sched = cs.graph, cs.schedule

    def add(msg: str, **kw) -> bool:
        diags.append(Diagnostic.of("SA502", msg, **kw))
        return len(diags) >= MAX_FINDINGS

    if lo.num_tasks != g.num_tasks:
        add(f"{lo.num_tasks} lowered tasks for {g.num_tasks} graph tasks")
    flat = [t for order in sched.orders for t in order]
    if lo.task_name != flat:
        add("task_name does not equal the flattened processor orders")
    elif len(set(lo.task_name)) != len(lo.task_name):
        add("task_name contains duplicate tids")
    for q in range(lo.num_procs):
        lob, hib = lo.proc_start[q], lo.proc_start[q + 1]
        if hib - lob != len(sched.orders[q]):
            if add(f"tid range [{lob}, {hib}) disagrees with the order "
                   f"length {len(sched.orders[q])}", proc=q):
                return diags

    if lo.num_objects != g.num_objects:
        add(f"{lo.num_objects} lowered objects for {g.num_objects} "
            "graph objects")
    for name, oid in g.object_index.items():
        if not (0 <= oid < len(lo.obj_name)) or lo.obj_name[oid] != name:
            if add(f"obj_name[{oid}] does not invert object_index[{name!r}]",
                   obj=name):
                return diags

    for (dest, m, unit), mk in lo.mk_index.items():
        if not (0 <= mk < lo.num_mk):
            if add(f"mk_index[{(dest, m, unit)!r}] = {mk} out of range"):
                return diags
            continue
        if (lo.mk_dest[mk] != dest
                or lo.mk_uname[mk] != unit
                or lo.mk_oid[mk] != g.object_index[m]):
            if add(f"mk {mk} does not round-trip its key "
                   f"{(dest, m, unit)!r}", obj=m, proc=dest):
                return diags
    for (u, dest), sk in lo.sk_index.items():
        if not (0 <= sk < lo.num_sk) or lo.sk_dest[sk] != dest:
            if add(f"sk {sk} does not round-trip its key {(u, dest)!r}",
                   proc=dest):
                return diags

    # group partition: every mk appears exactly once, under its group.
    seen = [0] * lo.num_mk
    for gid in range(lo.num_grp):
        for j in range(lo.grp_ptr[gid], lo.grp_ptr[gid + 1]):
            mk = lo.grp_mk[j]
            seen[mk] += 1
            if lo.grp_of[mk] != gid:
                if add(f"mk {mk} listed under group {gid} but grp_of says "
                       f"{lo.grp_of[mk]}"):
                    return diags
    bad = [mk for mk, n in enumerate(seen) if n != 1]
    if bad:
        add(f"groups do not partition the mk space (mks {bad[:5]} appear "
            "!= once)")
    return diags[:MAX_FINDINGS]


# ----------------------------------------------------------------------
# SA503: version tables / wait-for consistency
# ----------------------------------------------------------------------


@_guard("SA503")
def _version_pass(cs, lo) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    def add(msg: str, **kw) -> bool:
        diags.append(Diagnostic.of("SA503", msg, **kw))
        return len(diags) >= MAX_FINDINGS

    tid_of = {name: i for i, name in enumerate(lo.task_name)}
    for tid, name in enumerate(lo.task_name):
        want = cs.pending0.get(name, 0)
        if lo.pending0[tid] != want:
            if add(f"pending0[{tid}] = {lo.pending0[tid]} but the "
                   f"schedule needs {want} inputs", task=name):
                return diags
    for (dest, m, unit), mk in lo.mk_index.items():
        want_need = cs.need_count0[dest][(m, unit)]
        if lo.mk_need0[mk] != want_need:
            if add(f"mk_need0[{mk}] = {lo.mk_need0[mk]} but "
                   f"{want_need} stale copies are outstanding",
                   obj=m, proc=dest):
                return diags
        want_wait = sorted(tid_of[w] for w in cs.data_waiters[dest][(m, unit)])
        got_wait = sorted(lo.wait_tid[lo.wait_ptr[mk]:lo.wait_ptr[mk + 1]])
        if want_wait != got_wait:
            if add(f"waiter list of mk {mk} disagrees with data_waiters",
                   obj=m, proc=dest):
                return diags
    for (u, dest), sk in lo.sk_index.items():
        want_wait = sorted(tid_of[w] for w in cs.sync_waiters[dest][u])
        got_wait = sorted(lo.swait_tid[lo.swait_ptr[sk]:lo.swait_ptr[sk + 1]])
        if want_wait != got_wait:
            if add(f"waiter list of sk {sk} disagrees with sync_waiters",
                   proc=dest):
                return diags

    # Independent recomputation of the static dispatch-version flags.
    oid_of = cs.graph.object_index
    for q in range(lo.num_procs):
        ver: dict[int, str] = {}
        writes: dict[int, list[tuple[int, str]]] = {}
        lob, hib = lo.proc_start[q], lo.proc_start[q + 1]
        for pos, tid in enumerate(range(lob, hib)):
            name = lo.task_name[tid]
            for m, uu in cs.write_version[name]:
                ver[oid_of[m]] = uu
                writes.setdefault(oid_of[m], []).append((pos, uu))
            for od in range(lo.od_ptr[tid], lo.od_ptr[tid + 1]):
                ok = ver.get(lo.od_oid[od]) == lo.od_uname[od]
                if lo.od_ok0[od] != ok:
                    if add(f"od_ok0[{od}] = {lo.od_ok0[od]} but the "
                           f"order scan proves {ok}", proc=q, task=name,
                           obj=lo.obj_name[lo.od_oid[od]]):
                        return diags
        for pos, tid in enumerate(range(lob, hib)):
            for od in range(lo.od_ptr[tid], lo.od_ptr[tid + 1]):
                req = lo.od_uname[od]
                ow = _NO_OVERWRITE
                for wpos, uu in writes.get(lo.od_oid[od], ()):
                    if wpos > pos and uu != req:
                        ow = wpos
                        break
                if lo.od_ow[od] != ow:
                    if add(f"od_ow[{od}] = {lo.od_ow[od]} but the first "
                           f"invalidating overwrite is at {ow}",
                           proc=q, obj=lo.obj_name[lo.od_oid[od]]):
                        return diags
    return diags[:MAX_FINDINGS]


# ----------------------------------------------------------------------
# SA504: opcode-stream validity (ExecPlan)
# ----------------------------------------------------------------------


@_guard("SA504")
def _opcode_pass(lo, ep) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    def add(msg: str, **kw) -> bool:
        diags.append(Diagnostic.of("SA504", msg, **kw))
        return len(diags) >= MAX_FINDINGS

    def silent(tid: int) -> bool:
        return (lo.pending0[tid] == 0
                and lo.od_ptr[tid] == lo.od_ptr[tid + 1]
                and lo.os_ptr[tid] == lo.os_ptr[tid + 1]
                and lo.cons_ptr[tid] == lo.cons_ptr[tid + 1])

    if len(ep.steps) != lo.num_procs:
        add(f"{len(ep.steps)} step programs for {lo.num_procs} processors")
        return diags
    for q in range(lo.num_procs):
        cursor = lo.proc_start[q]
        end = lo.proc_start[q + 1]
        for si, step in enumerate(ep.steps[q]):
            op = step[0]
            if op == _MAP_OP:
                _, cost, flo, fhi, alo, ahi, plo, phi = step
                if not (0 <= flo <= fhi <= len(ep.mf_oid)
                        and 0 <= alo <= ahi <= len(ep.ma_oid)
                        and 0 <= plo <= phi <= len(ep.pkg_dst)):
                    if add(f"MAP step {si} references free/alloc/package "
                           "ranges outside their tables", proc=q):
                        return diags
                continue
            if op == _SEG_OP:
                _, first, hi, vec = step
            elif op == _TASK_OP:
                first, hi = step[1], step[1] + 1
            else:
                if add(f"step {si} has unknown opcode {op!r}", proc=q):
                    return diags
                continue
            if first != cursor or not first < hi <= end:
                if add(f"step {si} executes tids [{first}, {hi}) but the "
                       f"program position expects tid {cursor} of P{q}'s "
                       f"order [{lo.proc_start[q]}, {end})", proc=q):
                    return diags
                if not lo.proc_start[q] <= first < hi <= end:
                    continue
            cursor = hi  # resync to keep later findings meaningful
            if op == _TASK_OP:
                continue
            for tid in range(first, hi):
                if not silent(tid):
                    if add(f"SEG step {si} covers task "
                           f"{lo.task_name[tid]!r} which is not silent "
                           "(it has inputs, messages or consumptions)",
                           proc=q, task=lo.task_name[tid],
                           position=tid - lo.proc_start[q]):
                        return diags
            if vec is not None and vec[0].tolist() != lo.weight[first:hi]:
                if add(f"SEG step {si} kernel weights disagree with "
                       f"weight[{first}:{hi}]", proc=q):
                    return diags
        if cursor != end:
            if add(f"step program covers tids up to {cursor} but P{q}'s "
                   f"order ends at {end}", proc=q):
                return diags
    return diags[:MAX_FINDINGS]


# ----------------------------------------------------------------------
# SA505: cost-table sanity
# ----------------------------------------------------------------------


def _finite_nonneg(x) -> bool:
    return x == x and x >= 0.0 and x != float("inf")


@_guard("SA505")
def _cost_pass(lo, ep) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    def add(msg: str, **kw) -> bool:
        diags.append(Diagnostic.of("SA505", msg, **kw))
        return len(diags) >= MAX_FINDINGS

    for tid, w in enumerate(lo.weight):
        if not _finite_nonneg(w):
            if add(f"task weight[{tid}] = {w!r} is not finite non-negative",
                   task=lo.task_name[tid]):
                return diags
    for oid, sz in enumerate(lo.obj_size):
        if sz < 0:
            if add(f"obj_size[{oid}] = {sz} is negative",
                   obj=lo.obj_name[oid]):
                return diags
    for q, pb in enumerate(lo.perm_bytes):
        if pb < 0:
            if add(f"perm_bytes[P{q}] = {pb} is negative", proc=q):
                return diags
    for od, nb in enumerate(lo.od_nbytes):
        if nb < 0:
            if add(f"od_nbytes[{od}] = {nb} is negative"):
                return diags

    if ep is not None:
        spec = ep.spec
        for od, nb in enumerate(lo.od_nbytes):
            if ep.od_net[od] != spec.message_time(nb):
                if add(f"od_net[{od}] = {ep.od_net[od]!r} does not "
                       "reproduce spec.message_time"):
                    return diags
            if ep.od_nic[od] != nb * spec.byte_time:
                if add(f"od_nic[{od}] = {ep.od_nic[od]!r} does not "
                       "reproduce spec.byte_time"):
                    return diags
        for k, cost in enumerate(ep.pkg_cost):
            want = (spec.package_overhead
                    + len(ep.pkg_objs[k]) * spec.address_cost)
            if cost != want:
                if add(f"pkg_cost[{k}] = {cost!r} != package_overhead + "
                       f"{len(ep.pkg_objs[k])} * address_cost"):
                    return diags
        for q, prog in enumerate(ep.steps):
            for si, step in enumerate(prog):
                if step[0] == _MAP_OP and not _finite_nonneg(step[1]):
                    if add(f"MAP step {si} cost {step[1]!r} is not finite "
                           "non-negative", proc=q):
                        return diags
    return diags[:MAX_FINDINGS]


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def verify_lowering(cs) -> list[Diagnostic]:
    """Verify the spec-free lowering of ``cs`` (SA501-SA503, SA505).

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
    diags += _cost_pass(lo, None)
    return diags


def verify_exec_plan(
    cs,
    capacity: int,
    spec,
    memory_managed: bool = True,
    preknown: bool = False,
) -> list[Diagnostic]:
    """Verify the lowering *and* the step programs of one exec plan.

    A capacity below MIN_MEM admits no exec plan at all; the verifier
    then degrades to the lowering-level passes — the non-executability
    verdict itself belongs to the analyzer's ``SA101``, not to SA5xx.
    """
    diags = verify_lowering(cs)
    if any(d.rule == "SA501" for d in diags):
        return diags
    try:
        ep = get_exec_plan(cs, capacity, spec, memory_managed, preknown)
    except NonExecutableScheduleError:
        return diags
    lo = lower_schedule(cs)
    diags += _opcode_pass(lo, ep)
    diags += _cost_pass(lo, ep)
    # the lowering-level cost findings were already collected once
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
    preknown: bool = False,
    label: str = "",
):
    """Run the verifier and wrap the findings as an ``AnalysisReport``
    (same rendering/JSON/SARIF surface as ``analyze_schedule``)."""
    from .engine import AnalysisReport

    if capacity is not None and spec is not None:
        diags = verify_exec_plan(cs, capacity, spec, memory_managed, preknown)
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


def debug_verify(cs, ep=None) -> None:
    """Raise :class:`~repro.errors.SimulationError` on any IR error.

    Hooked into :func:`repro.machine.compiled.lower_schedule` /
    :func:`~repro.machine.compiled.get_exec_plan` when the
    ``REPRO_VERIFY_IR`` environment variable is set (the engine's debug
    path); ``ep`` skips re-deriving the plan the caller just built.
    """
    lo = lower_schedule(cs)
    diags = _csr_pass(lo)
    if not diags:
        diags += _bijection_pass(cs, lo)
        diags += _version_pass(cs, lo)
        diags += _cost_pass(lo, None)
        if ep is not None:
            diags += _opcode_pass(lo, ep)
            diags += _cost_pass(lo, ep)
    errors = [d for d in diags if d.severity >= 2]
    if errors:
        body = "; ".join(str(d) for d in errors[:5])
        raise SimulationError(
            f"lowered-IR verification failed ({len(errors)} finding(s)): "
            f"{body}"
        )

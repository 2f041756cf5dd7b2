"""The interpreted engine: the reference oracle of the compiled one.

:func:`run_interpreted` executes the five-state protocol as the
:mod:`repro.machine.simulator` docstring states it, over the name-keyed
tables of :func:`name_tables` with one tuple per event.  Only
``Simulator(engine="interpreted")`` (``--engine interpreted``) runs it;
the differential tests hold the compiled engine of
:mod:`repro.machine.compiled` to it bit for bit, hook call for hook call
and error for error, faulted runs included.  The name tables never
read the compiled engine's lowering, so its oracles read them too (the
invariant checker, the dataflow recorder, irverify's SA502/SA503 and
the deadlock report), importing this module on first need.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple, Optional

from ..core.index import MappingIndex, graph_index
from ..core.maps import MapPoint
from ..errors import DataConsistencyError, DeadlockError, SimulationError
from .memory import ObjectAllocator
from .simulator import CompiledSchedule, ProcessorStats, ProcState, SimResult

__all__ = ["NameTables", "name_tables", "run_interpreted"]

# Event kinds (ordered tuples on a heap).
_TASK_DONE = 0
_DATA_ARRIVE = 1
_ADDR_ARRIVE = 2
_SLOT_FREE = 3


class NameTables(NamedTuple):
    """The name-keyed tables of one schedule (see :func:`name_tables`).

    The ``"sim-messages"`` memo of a mapping holds its order-independent
    part: ``out_data`` keyed by producer unit, and no ``trigger``."""

    #: producer unit -> trigger task, its last task in the processor order
    trigger: dict[str, str]
    #: trigger task -> data messages ``(obj, unit, dest, nbytes)``
    out_data: dict[str, list[tuple[str, str, int, int]]]
    #: task -> sync messages ``(unit, dest)``
    out_sync: dict[str, list[tuple[str, int]]]
    #: task -> ``("data", obj, unit)`` / ``("sync", unit)`` requirements
    needs: dict[str, list[tuple]]
    #: per processor: unexecuted tasks still needing each received key
    #: (the stale-copy consistency check)
    need_count0: list[dict[tuple, int]]
    #: per processor: tasks waiting on each received data / sync key
    data_waiters: list[dict[tuple[str, str], list[str]]]
    sync_waiters: list[dict[str, list[str]]]
    #: task -> distinct remote inputs it waits for
    pending0: dict[str, int]
    weight: dict[str, float]
    #: task -> ``(object, producer unit)`` version updates
    write_version: dict[str, tuple[tuple[str, str], ...]]
    #: task -> received keys it consumes (with multiplicity)
    consumes: dict[str, tuple[tuple[str, str], ...]]


def name_tables(cs: CompiledSchedule) -> NameTables:
    """The name-keyed tables of ``cs``, built on first use.  Only the
    trigger tasks depend on the processor orders; the rest is memoised
    per graph (``"sim-units"``) and per mapping (``"sim-messages"``), so
    every schedule of one mapping shares it."""
    if cs._name_tables is None:
        g, mi = cs.graph, cs._mi
        units = graph_index(g).memo("sim-units", lambda: _unit_tables(g))
        msgs = mi.memo("sim-messages", lambda: _message_tables(g, mi, units))
        # Commuting groups (co-located) trigger on their last task in
        # the order; other units on their only task.
        trigger = dict(units.trigger0)
        if units.groups:
            pos = cs.schedule.position()
            for u, members in units.groups.items():
                trigger[u] = max(members, key=pos.__getitem__)
        cs._name_tables = msgs._replace(trigger=trigger, out_data={
            trigger[u]: m for u, m in msgs.out_data.items()})
    return cs._name_tables


class _UnitTables(NamedTuple):
    """Graph-only name tables (see :func:`_unit_tables`)."""

    #: task -> producer unit (commuting-group key or the task itself)
    pid_of: dict[str, str]
    #: unit -> its first task in program order (the trigger of a
    #: single-task unit)
    trigger0: dict[str, str]
    #: commuting unit with several tasks -> its tasks in program order
    groups: dict[str, list[str]]
    weight: dict[str, float]
    write_version: dict[str, tuple[tuple[str, str], ...]]


def _unit_tables(g) -> _UnitTables:
    pid_of: dict[str, str] = {}
    trigger0: dict[str, str] = {}
    members: dict[str, list[str]] = {}
    weight: dict[str, float] = {}
    write_version: dict[str, tuple[tuple[str, str], ...]] = {}
    for t in g.tasks():
        u = t.commute if t.commute is not None else t.name
        pid_of[t.name] = u
        trigger0.setdefault(u, t.name)
        members.setdefault(u, []).append(t.name)
        weight[t.name] = t.weight
        write_version[t.name] = tuple((m, u) for m in t.writes)
    groups = {u: ts for u, ts in members.items() if len(ts) > 1}
    return _UnitTables(pid_of, trigger0, groups, weight, write_version)


def _message_tables(g, mi: MappingIndex, units: _UnitTables) -> NameTables:
    """Messages, receiver requirements and readiness waiters of every
    cross-processor edge.  None of it depends on the processor orders,
    so every schedule of one mapping shares one copy."""
    pid_of = units.pid_of
    proc_of = dict(zip(mi.names, mi.proc))
    size = graph_index(g).obj_size
    out_data: dict[str, list[tuple[str, str, int, int]]] = {}
    out_sync: dict[str, list[tuple[str, int]]] = {}
    seen_data: set[tuple[str, str, int]] = set()
    seen_sync: set[tuple[str, int]] = set()
    needs: dict[str, list[tuple]] = {t: [] for t in mi.names}
    need_count: list[dict[tuple, int]] = [dict() for _ in range(mi.num_procs)]
    data_waiters: list[dict[tuple[str, str], list[str]]] = [
        dict() for _ in range(mi.num_procs)
    ]
    sync_waiters: list[dict[str, list[str]]] = [
        dict() for _ in range(mi.num_procs)
    ]
    pending: dict[str, int] = {}

    for u, inner in g.successor_map().items():
        pu = proc_of[u]
        for v, objs in inner.items():
            pv = proc_of[v]
            if pu == pv:
                continue
            unit = pid_of[u]
            if objs:
                # The payload of a commuting group is its accumulated
                # result: one message per (object, group, destination),
                # issued when the group's last local task finishes.  The
                # true graph gives readers edges from *every* member, so
                # waiting for the group adds no false synchronisation.
                for m in sorted(objs):
                    key = (m, unit, pv)
                    if key not in seen_data:
                        seen_data.add(key)
                        out_data.setdefault(unit, []).append(
                            (m, unit, pv, size[m])
                        )
                    needs[v].append(("data", m, unit))
                    cnt = need_count[pv]
                    cnt[(m, unit)] = cnt.get((m, unit), 0) + 1
                    waiters = data_waiters[pv].setdefault((m, unit), [])
                    if v not in waiters:
                        waiters.append(v)
                        pending[v] = pending.get(v, 0) + 1
            else:
                # Synchronisation edges are member-specific (they encode
                # a transformed anti/output dependence from one task);
                # firing them at group completion instead would create
                # circular waits the true graph does not have.
                key = (u, pv)
                if key not in seen_sync:
                    seen_sync.add(key)
                    out_sync.setdefault(u, []).append((u, pv))
                needs[v].append(("sync", u))
                waiters = sync_waiters[pv].setdefault(u, [])
                if v not in waiters:
                    waiters.append(v)
                    pending[v] = pending.get(v, 0) + 1
    consumes = {
        t: tuple((req[1], req[2]) for req in reqs if req[0] == "data")
        for t, reqs in needs.items()
    }
    return NameTables(
        {}, out_data, out_sync, needs, need_count, data_waiters,
        sync_waiters, pending, units.weight, units.write_version, consumes,
    )


def run_interpreted(sim) -> SimResult:
    """Execute ``sim`` with the interpreted engine; returns a
    :class:`~repro.machine.simulator.SimResult` with
    ``engine="interpreted"``.  All state is local to the call."""
    sched, spec = sim.schedule, sim.spec
    cs = sim.compiled
    nt = name_tables(cs)
    nprocs = sim.p
    # Hot-loop locals (closure lookups beat attribute lookups).
    out_data, out_sync = nt.out_data, nt.out_sync
    weight, write_version, consumes = nt.weight, nt.write_version, nt.consumes
    REC, EXE, SND = ProcState.REC, ProcState.EXE, ProcState.SND
    MAP, END, DONE = ProcState.MAP, ProcState.END, ProcState.DONE
    wake_states = (REC, MAP, END)

    # --- mutable state (all run-local) ---------------------------
    seq = 0
    last_seq = -1
    now = 0.0  # timestamp of the event currently being processed
    events: list[tuple] = []  # (time, seq, kind, payload)

    def post(t: float, kind: int, payload: tuple) -> None:
        # Tie-breaking contract (see module docstring): same-time
        # events pop in push order because ``seq`` increases
        # strictly at every push; causality (t >= now) guarantees
        # nothing is ever scheduled before the event being handled,
        # so heap order == processing order deterministically.  The
        # compiled engine reproduces exactly this (time, seq) order.
        nonlocal seq, last_seq
        assert seq > last_seq, (
            f"event seq must be strictly monotone ({seq} <= {last_seq})"
        )
        assert t >= now, (
            f"event scheduled in the past (t={t!r} < now={now!r})"
        )
        last_seq = seq
        heapq.heappush(events, (t, seq, kind, payload))
        seq += 1

    # --- telemetry (run-local; null-object instruments) -----------
    obs, suite, tlog = sim._observers()
    #: Single gate hoisted out of the hot loop: when no instrument is
    #: attached, each call site costs one local-bool test — no event
    #: objects, no detail strings, no allocation (priced by
    #: ``benchmarks/bench_cost_budgets.py``).
    observing = obs is not None
    if observing:
        obs.on_run_begin(0.0, nprocs, sim.capacity, sim.memory_managed)

    #: Run-local fault injector; ``None`` (the common case) keeps
    #: every injection site at a single local-is-None test.
    fi = sim.faults.injector() if sim.faults and sim.faults.active else None

    maps_at = [{mp.position: mp for mp in pts}  # per processor, by position
               for pts in (sim.plan.points if sim.plan else [()] * nprocs)]
    state = [REC] * nprocs
    idx = [0] * nprocs
    avail = [0.0] * nprocs  # earliest time of the next local action
    done: set[str] = set()
    stats = [ProcessorStats() for _ in range(nprocs)]
    alloc = [ObjectAllocator(sim.capacity) for _ in range(nprocs)]
    obj_size = graph_index(sim.g).obj_size
    for q in range(nprocs):
        if cs.perm_bytes[q]:
            alloc[q].alloc("<permanent>", cs.perm_bytes[q])
            if observing:
                obs.on_alloc(0.0, q, "<permanent>", cs.perm_bytes[q],
                             alloc[q].used)
    if not sim.memory_managed:
        # Baseline: all volatile space allocated up-front.
        for q in range(nprocs):
            for m in sim.profile.procs[q].span:
                alloc[q].alloc(m, obj_size[m])
                if observing:
                    obs.on_alloc(0.0, q, m, obj_size[m], alloc[q].used)

    #: received volatile contents: per processor, object -> versions.
    received_data: list[dict[str, set[str]]] = [dict() for _ in range(nprocs)]
    received_sync: list[set[str]] = [set() for _ in range(nprocs)]
    #: countdown of unmet remote inputs per task (0 = ready).
    pending_inputs = dict(nt.pending0)
    data_waiters = nt.data_waiters
    sync_waiters = nt.sync_waiters
    current_version: dict[str, Optional[str]] = dict.fromkeys(obj_size)
    # Sender-side address knowledge: (obj, dest) pairs.
    addr_known: list[set[tuple[str, int]]] = [set() for _ in range(nprocs)]
    if not sim.memory_managed or sim.preknown_addresses:
        for q in range(nprocs):
            for m in sim.profile.procs[q].span:
                owner = sched.placement[m]
                addr_known[owner].add((m, q))
    suspended: list[list[tuple[str, str, int, int]]] = [[] for _ in range(nprocs)]
    # Address-package slots: slot_busy[src][dst] from src's viewpoint;
    # inbox[dst][src] holds an unread package's object list.
    slot_busy: list[list[bool]] = [[False] * nprocs for _ in range(nprocs)]
    inbox: list[dict[int, list[str]]] = [dict() for _ in range(nprocs)]
    # Packages a blocked MAP still has to send: (dst, objs).
    pending_pkgs: list[list[tuple[int, list[str]]]] = [[] for _ in range(nprocs)]
    map_pending: list[bool] = [False] * nprocs
    # Position of the last MAP executed per processor (positions are
    # strictly increasing, so this marks a MAP done without mutating
    # the shared plan).
    map_done = [-1] * nprocs
    need_count = [dict(d) for d in nt.need_count0]
    finished_procs = 0
    last_task_finish = 0.0

    # --- helpers ---------------------------------------------------
    def charge(q: int, t: float, cost: float, kind: str) -> float:
        start = max(avail[q], t)
        end = start + cost
        avail[q] = end
        stats[q].overhead_time += cost
        if observing:
            obs.on_overhead(start, end, q, kind)
        return end

    nic_free = [0.0] * nprocs  # injection-link availability (optional)

    def dispatch_data(q: int, m: str, unit: str, dest: int, nbytes: int, t: float) -> None:
        if current_version[m] != unit:
            raise DataConsistencyError(
                f"P{q} sending {m!r} version {current_version[m]!r} for an "
                f"edge requiring version {unit!r}"
            )
        t2 = charge(q, t, spec.send_overhead, "send")
        stats[q].data_msgs_sent += 1
        net = spec.message_time(nbytes)
        if spec.nic_serialize:
            start = max(nic_free[q], t2)
            nic_free[q] = start + nbytes * spec.byte_time
            arrive = start + net
        else:
            arrive = t2 + net
        if fi is not None:
            arrive += fi.put_delay(q, dest, net)
        if observing:
            obs.on_put(t2, arrive, q, dest, m, unit, nbytes)
        post(arrive, _DATA_ARRIVE, (dest, m, unit, q))

    def ra(q: int, t: float) -> None:
        """Read arrived address packages, then check the suspended
        queue (the RA + CQ pair of Figure 3(b))."""
        if inbox[q]:
            for src, objs in sorted(inbox[q].items()):
                for m in objs:
                    addr_known[q].add((m, src))
                stats[q].packages_read += 1
                charge(q, t, spec.ra_cost, "ra")
                if observing:
                    obs.on_package_read(max(avail[q], t), q, src, len(objs))
                # Consuming frees the sender's slot after one latency.
                free_at = max(avail[q], t) + spec.put_latency
                if fi is not None:
                    free_at += fi.consume_delay(q, src, spec.put_latency)
                post(free_at, _SLOT_FREE, (src, q))
            inbox[q].clear()
        if suspended[q]:
            still: list[tuple[str, str, int, int]] = []
            ready: list[tuple[str, str, int, int]] = []
            for item in suspended[q]:
                if (item[0], item[2]) in addr_known[q]:
                    ready.append(item)
                else:
                    still.append(item)
            suspended[q] = still
            for m, unit, dest, nbytes in ready:
                dispatch_data(q, m, unit, dest, nbytes, max(avail[q], t))
                if observing:
                    obs.on_put_drain(max(avail[q], t), q, dest, m, len(still))

    def try_send_packages(q: int, t: float) -> bool:
        """Send pending address packages; True when none remain."""
        still: list[tuple[int, list[str]]] = []
        for dst, objs in pending_pkgs[q]:
            if slot_busy[q][dst] and (fi is None or not fi.overwrite_slots):
                still.append((dst, objs))
                if observing:
                    obs.on_package_block(max(avail[q], t), q, dst, len(objs))
                continue
            slot_busy[q][dst] = True
            cost = spec.package_overhead + len(objs) * spec.address_cost
            t2 = charge(q, t, cost, "package")
            stats[q].packages_sent += 1
            if observing:
                obs.on_package_send(t2, q, dst, len(objs))
            post(t2 + spec.put_latency, _ADDR_ARRIVE, (dst, q, list(objs)))
        pending_pkgs[q] = still
        return not still

    def do_map(q: int, mp: MapPoint, t: float) -> None:
        stats[q].num_maps += 1
        if observing:
            obs.on_map(max(avail[q], t), q, mp.position, list(mp.frees),
                       list(mp.allocs))
        cost = (
            spec.map_overhead
            + len(mp.frees) * spec.free_cost
            + len(mp.allocs) * spec.alloc_cost
        )
        charge(q, t, cost, "map")
        t_map = avail[q]  # memory ops take effect at MAP completion
        for m in mp.frees:
            alloc[q].free(m)
            # The content dies with the space; later arrivals of the
            # same object would be protocol violations.
            received_data[q].pop(m, None)
            if observing:
                obs.on_free(t_map, q, m, obj_size[m], alloc[q].used)
        for m in mp.allocs:
            alloc[q].alloc(m, obj_size[m])
            if observing:
                obs.on_alloc(t_map, q, m, obj_size[m], alloc[q].used)
        stats[q].peak_memory = max(stats[q].peak_memory, alloc[q].peak)
        if not sim.preknown_addresses:
            pending_pkgs[q].extend(
                (dst, list(objs)) for dst, objs in sorted(mp.notifications.items())
            )
            map_pending[q] = True

    def advance(q: int, t: float) -> None:
        nonlocal finished_procs
        if state[q] is EXE or state[q] is DONE:
            return
        if inbox[q] or suspended[q]:
            ra(q, t)
        order = sched.orders[q]
        map_at = maps_at[q]
        while True:
            if map_pending[q]:
                if not try_send_packages(q, max(avail[q], t)):
                    state[q] = MAP
                    if observing:
                        obs.on_state(max(avail[q], t), q, "MAP")
                    return
                map_pending[q] = False
            if idx[q] >= len(order):
                if suspended[q] or pending_pkgs[q]:
                    state[q] = END
                    if observing:
                        obs.on_state(max(avail[q], t), q, "END")
                    return
                if state[q] is not DONE:
                    state[q] = DONE
                    stats[q].finish_time = max(avail[q], t)
                    finished_procs += 1
                    if observing:
                        obs.on_proc_end(stats[q].finish_time, q)
                return
            mp = map_at.get(idx[q])
            if mp is not None and map_done[q] < idx[q]:
                map_done[q] = idx[q]
                do_map(q, mp, t)
                continue
            task = order[idx[q]]
            if pending_inputs.get(task, 0):
                state[q] = REC
                if observing:
                    obs.on_state(max(avail[q], t), q, "REC")
                return
            # EXE
            state[q] = EXE
            w = weight[task]
            if fi is not None:
                w *= fi.exe_factor(q)
            start = max(avail[q], t)
            stats[q].busy_time += w
            avail[q] = start + w
            if observing:
                obs.on_exe(start, start + w, q, task)
            post(start + w, _TASK_DONE, (q, task))
            return

    def complete(q: int, task: str, t: float) -> None:
        nonlocal last_task_finish
        done.add(task)
        if t > last_task_finish:
            last_task_finish = t
        idx[q] += 1
        stats[q].num_tasks += 1
        for m, unit in write_version[task]:
            current_version[m] = unit
        # Account consumed keys (stale-copy bookkeeping).
        nc = need_count[q]
        for key in consumes[task]:
            nc[key] -= 1
        # SND: issue messages triggered by this task.
        state[q] = SND
        if observing:
            obs.on_state(t, q, "SND")
        for m, unit, dest, nbytes in out_data.get(task, ()):
            if (m, dest) in addr_known[q]:
                dispatch_data(q, m, unit, dest, nbytes, t)
            else:
                suspended[q].append((m, unit, dest, nbytes))
                stats[q].suspended_sends += 1
                if observing:
                    obs.on_put_suspend(t, q, dest, m, unit, len(suspended[q]))
        for unit, dest in out_sync.get(task, ()):
            t2 = charge(q, t, spec.send_overhead, "send")
            stats[q].sync_msgs_sent += 1
            if observing:
                obs.on_sync(t2, t2 + spec.put_latency, q, dest, unit)
            post(t2 + spec.put_latency, _DATA_ARRIVE, (dest, None, unit, q))
        state[q] = REC
        advance(q, max(avail[q], t))

    # --- bootstrap ---------------------------------------------------
    for q in range(nprocs):
        advance(q, 0.0)

    # --- event loop --------------------------------------------------
    while events:
        t, _s, kind, payload = heapq.heappop(events)
        now = t
        if kind == _TASK_DONE:
            q, task = payload
            complete(q, task, t)
        elif kind == _DATA_ARRIVE:
            dest, m, unit, _src = payload
            if m is None:
                if unit not in received_sync[dest]:
                    received_sync[dest].add(unit)
                    for w_task in sync_waiters[dest].get(unit, ()):
                        pending_inputs[w_task] -= 1
            else:
                if (
                    sim.memory_managed
                    and not sim.preknown_addresses
                    and not alloc[dest].is_allocated(m)
                ):
                    # In steady-state iterative mode the address slot
                    # persists across MAPs, so early arrival is legal
                    # there; in the first-iteration protocol it is a
                    # violation (data must land in allocated space).
                    raise SimulationError(
                        f"data for {m!r} arrived at P{dest} with no "
                        "allocated space (protocol violation)"
                    )
                # Stale-copy check: overwrite of an older version must
                # not be needed by any pending local reader.
                versions = received_data[dest].setdefault(m, set())
                for old in [u for u in versions if u != unit]:
                    if need_count[dest].get((m, old), 0) > 0:
                        raise DataConsistencyError(
                            f"P{dest} received {m!r}/{unit!r} while "
                            f"version {old!r} is still needed"
                        )
                    versions.discard(old)
                if unit not in versions:
                    versions.add(unit)
                    for w_task in data_waiters[dest].get((m, unit), ()):
                        pending_inputs[w_task] -= 1
                if observing:
                    obs.on_data_arrive(t, dest, m, unit, _src)
            if state[dest] in wake_states:
                advance(dest, t)
        elif kind == _ADDR_ARRIVE:
            dst, src, objs = payload
            inbox[dst][src] = objs
            if state[dst] in wake_states:
                advance(dst, t)
            elif state[dst] is DONE:
                # A finished processor still reads packages so the
                # sender's slot is released (defensive; should be
                # unreachable when the graph has producers for every
                # volatile object).
                ra(dst, t)
        elif kind == _SLOT_FREE:
            src, dst = payload
            slot_busy[src][dst] = False
            if state[src] in wake_states:
                advance(src, t)

    if finished_procs != nprocs:
        blocked = {
            q: state[q].value for q in range(nprocs) if state[q] is not DONE
        }
        err = DeadlockError(blocked, len(done), sim.g.num_tasks)
        # Attach a per-processor diagnosis (next task + unmet needs)
        # plus the wait-for edges the conformance layer turns into a
        # cycle witness: blocked proc -> procs it waits on.
        details: dict[int, str] = {}
        wait_for: dict[int, set[int]] = {}
        assignment = sched.assignment
        trigger = nt.trigger
        for q in range(nprocs):
            if state[q] is ProcState.DONE:
                continue
            waits = wait_for.setdefault(q, set())
            order = sched.orders[q]
            if idx[q] < len(order):
                task = order[idx[q]]
                missing = []
                for req in nt.needs[task]:
                    if req[0] == "data" and req[2] not in received_data[q].get(req[1], ()):
                        missing.append(f"data {req[1]}@{req[2]}")
                        waits.add(assignment[trigger[req[2]]])
                    elif req[0] == "sync" and req[1] not in received_sync[q]:
                        missing.append(f"sync {req[1]}")
                        waits.add(assignment[req[1]])
                details[q] = f"next={task} missing={missing}"
            else:
                details[q] = (
                    f"END suspended={suspended[q]} pending_pkgs={pending_pkgs[q]}"
                )
            # A blocked MAP waits on the destination whose slot is
            # busy; a suspended put waits on its destination's MAP
            # (the address package travels dest -> sender).
            for dst, _objs in pending_pkgs[q]:
                if slot_busy[q][dst]:
                    waits.add(dst)
            for m, _unit, dest, _nbytes in suspended[q]:
                if (m, dest) not in addr_known[q]:
                    waits.add(dest)
            waits.discard(q)
        err.details = details
        err.wait_for = wait_for
        raise err
    if len(done) != sim.g.num_tasks:
        raise SimulationError(
            f"only {len(done)}/{sim.g.num_tasks} tasks executed"
        )
    for q in range(nprocs):
        stats[q].peak_memory = max(stats[q].peak_memory, alloc[q].peak)
        if stats[q].peak_memory > sim.capacity:
            raise SimulationError(
                f"P{q} peak memory {stats[q].peak_memory} exceeds "
                f"capacity {sim.capacity}"
            )
    pt = max((s.finish_time for s in stats), default=0.0)
    if observing:
        obs.on_run_end(pt)
    return sim._result(pt, last_task_finish, stats, "interpreted",
                       suite, tlog)

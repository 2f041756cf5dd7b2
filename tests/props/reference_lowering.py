"""Frozen reference lowering: ``repro.machine.compiled._lower_mapping``
as it stood before it numbered the message keys in bulk — one Python
pass over every cross-processor edge, numbering each key by first
appearance in dicts — with the edge lists the graph-id tables then
carried (``_edge_lists``).

Kept verbatim (apart from this docstring, the edge-list prelude, the
per-spec cost memo it no longer seeds, and the plain namespace it fills:
it keeps the address-knowledge keys ``(owner, object, dest)`` —
``od_ak``, ``ak_index`` — and ``grp_index``, which the array lowering
replaced by ``od_grp``, ``grp_at`` and ``grp_src``) so the property
suite can pin every table field of the array lowering's
:class:`MappingLowering` to it.  Do not "fix" or speed this copy up: it
is the oracle.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.errors import SimulationError
from repro.machine.compiled import _graph_ids


def _edge_lists(g, gi):
    """Every edge ``u -> v`` in ``successor_map`` order, as parallel
    lists of tids and the sorted oids it carries (``()``: sync edge)."""
    oid_of = gi.oid
    tid = gi.tid
    edge_u: list[int] = []
    edge_v: list[int] = []
    edge_objs: list[tuple[int, ...]] = []
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    for uname, inner in g.successor_map().items():
        u = tid[uname]
        for vname, objs in inner.items():
            edge_u.append(u)
            edge_v.append(tid[vname])
            # oids follow sorted names, so this is the interpreted
            # engine's sorted(objs) send order
            key = tuple(sorted(oid_of[m] for m in objs))
            edge_objs.append(shared.setdefault(key, key))
    return edge_u, edge_v, edge_objs


def _csr(rows: dict[int, list[int]], n: int) -> tuple[list[int], list[int]]:
    """CSR of ``rows`` (row -> entries; absent rows are empty) over
    rows ``0..n-1``."""
    ptr = [0]
    idx: list[int] = []
    for i in range(n):
        r = rows.get(i)
        if r is None:
            ptr.append(ptr[-1])  # most rows are empty: share the int
        else:
            idx += r
            ptr.append(len(idx))
    return ptr, idx


def reference_lower_mapping(g, gi, mi) -> SimpleNamespace:
    ids = gi.memo("compiled-ids", lambda: _graph_ids(g, gi))
    edge_u, edge_v, edge_objs = _edge_lists(g, gi)
    unit_of, unit_name, groups = ids.unit_of, ids.unit_name, ids.groups
    proc = mi.proc
    n = len(gi.names)
    nobj = len(gi.object_names)
    mk_of: dict[int, int] = {}  # (dest * nobj + oid) * n + unit -> mk
    mk_dest: list[int] = []
    mk_oid: list[int] = []
    mk_unit: list[int] = []
    mk_need0: list[int] = []
    waiters: list[list[int]] = []
    waited: set[tuple[int, int]] = set()  # (mk, reader), commuting units
    sk_of: dict[int, int] = {}  # task * P + dest -> sk
    sk_src: list[int] = []
    sk_dest: list[int] = []
    swaiters: list[list[int]] = []
    od_rows: dict[int, list[int]] = {}  # unit -> mks it sends
    os_rows: dict[int, list[int]] = {}
    cons_rows: dict[int, list[int]] = {}
    pending0 = [0] * n
    nprocs = mi.num_procs
    lowered = 0
    for u, v, objs in zip(edge_u, edge_v, edge_objs):
        pu, pv = proc[u], proc[v]
        if pu == pv:
            continue
        lowered += 1
        if objs:
            # The payload of a commuting group is its accumulated result:
            # one message per (object, group, destination), issued when
            # the group's last local task finishes.
            unit = unit_of[u]
            shared = unit in groups  # members may share readers
            cons = cons_rows.get(v)
            if cons is None:
                cons = cons_rows[v] = []
            for o in objs:
                key = (pv * nobj + o) * n + unit
                mk = mk_of.get(key)
                if mk is None:
                    mk = mk_of[key] = len(mk_dest)
                    mk_dest.append(pv)
                    mk_oid.append(o)
                    mk_unit.append(unit)
                    mk_need0.append(0)
                    waiters.append([])
                    row = od_rows.get(unit)
                    if row is None:
                        od_rows[unit] = [mk]
                    else:
                        row.append(mk)
                # A single-task unit reaches each (mk, reader) once.
                if not shared or (mk, v) not in waited:
                    if shared:
                        waited.add((mk, v))
                    waiters[mk].append(v)
                    pending0[v] += 1
                mk_need0[mk] += 1
                cons.append(mk)
        else:
            # Synchronisation edges are member-specific (they encode a
            # transformed anti/output dependence from one task).
            key = u * nprocs + pv
            sk = sk_of.get(key)
            if sk is None:
                sk = sk_of[key] = len(sk_dest)
                sk_src.append(u)
                sk_dest.append(pv)
                swaiters.append([])
                row = os_rows.get(u)
                if row is None:
                    os_rows[u] = [sk]
                else:
                    row.append(sk)
            swaiters[sk].append(v)
            pending0[v] += 1
    # Cross-check against the GraphIndex rows: every cross-processor
    # edge must have been lowered to a data message or a sync waiter.
    cross = sum(
        1 for u, row in enumerate(gi.succ) for v, _nb in row
        if proc[v] != proc[u]
    )
    if cross != lowered:
        raise SimulationError(
            f"lowering holds {lowered} of the graph's {cross} "
            "cross-processor edges"
        )

    ml = SimpleNamespace()
    ml.gi, ml.ids = gi, ids
    ml.num_procs = nprocs
    ml.num_tasks = n
    ml.num_objects = nobj
    ml.pending0 = pending0
    ml.num_mk, ml.num_sk = len(mk_dest), len(sk_dest)
    ml.mk_dest, ml.mk_oid, ml.mk_need0 = mk_dest, mk_oid, mk_need0
    ml.mk_uname = [unit_name[u] for u in mk_unit]
    # Sender of each data message (a unit's tasks are co-located): the
    # ``src`` of ``on_data_arrive`` in observed runs.
    ml.mk_src = [proc[u] for u in mk_unit]
    ml.wait_ptr, ml.wait_tid = _csr(dict(enumerate(waiters)), len(waiters))
    ml.sk_src, ml.sk_dest = sk_src, sk_dest
    ml.swait_ptr, ml.swait_tid = _csr(dict(enumerate(swaiters)),
                                      len(swaiters))
    ml.os_ptr, ml.os_sk = _csr(os_rows, n)
    ml.cons_ptr, ml.cons_mk = _csr(cons_rows, n)
    # Versions of one (dest, object) pair form a group.
    grp_index: dict[int, int] = {}
    grp_rows: list[list[int]] = []
    grp_of: list[int] = []
    for mk in range(len(mk_dest)):
        gkey = mk_dest[mk] * nobj + mk_oid[mk]
        gid = grp_index.get(gkey)
        if gid is None:
            gid = grp_index[gkey] = len(grp_rows)
            grp_rows.append([])
        grp_rows[gid].append(mk)
        grp_of.append(gid)
    ml.num_grp, ml.grp_of = len(grp_rows), grp_of
    ml.grp_ptr, ml.grp_mk = _csr(dict(enumerate(grp_rows)), len(grp_rows))
    # Outgoing data: one od slot per mk, in the row of its unit.
    ml.od_ptr, ml.od_mk = _csr(od_rows, n)
    ml.od_dest = [mk_dest[mk] for mk in ml.od_mk]
    ml.od_oid = [mk_oid[mk] for mk in ml.od_mk]
    ml.od_unit = [mk_unit[mk] for mk in ml.od_mk]
    ml.od_uname = [unit_name[u] for u in ml.od_unit]
    osz = gi.oid_size
    ml.od_nbytes = [osz[o] for o in ml.od_oid]
    ak_index: dict[int, int] = {}
    od_ak: list[int] = []
    for mk, o, dest in zip(ml.od_mk, ml.od_oid, ml.od_dest):
        akey = (proc[mk_unit[mk]] * nobj + o) * nprocs + dest
        ak = ak_index.get(akey)
        if ak is None:
            ak = ak_index[akey] = len(ak_index)
        od_ak.append(ak)
    ml.num_ak, ml.od_ak = len(ak_index), od_ak
    ml.ak_index, ml.grp_index = ak_index, grp_index
    odp, osp, cp = ml.od_ptr, ml.os_ptr, ml.cons_ptr
    ml.noisy = [
        pending0[i] > 0 or odp[i] != odp[i + 1] or osp[i] != osp[i + 1]
        or cp[i] != cp[i + 1]
        for i in range(n)
    ]
    return ml

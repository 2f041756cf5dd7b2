"""Differential properties of the shared inspector index.

The list scheduler, the mapped b-levels, the liveness analysis, the
Gantt evaluation and ``CompiledSchedule``'s message tables all run on
:mod:`repro.core.index`.  Each is checked here, with exact equality,
against a direct name-keyed implementation of the same definition (the
pre-index code), on random DAGs and placements; the reference list
scheduler reads each bound policy through a name view.  The ``tree``
ordering is checked against its definition, the per-processor
projection of program order.
"""

import heapq

from hypothesis import given, strategies as st

from repro.core import cyclic_placement, owner_compute_assignment
from repro.core.dts import dts_order
from repro.core.liveness import analyze_memory
from repro.core.index import graph_index, mapping_index
from repro.core.listsched import BoundPolicy, run_list_scheduler
from repro.core.mpo import MemoryPriorityPolicy, mpo_order
from repro.core.placement import Placement, perm_vola_sets
from repro.core.rcp import rcp_order, rcp_priorities
from repro.core.schedule import CommModel, gantt
from repro.core.treesched import tree_order
from repro.graph import generators as gen
from repro.graph.analysis import b_levels, mapped_edge_cost, size_edge_cost
from repro.machine.reference import name_tables
from repro.machine.simulator import CompiledSchedule

cases = st.tuples(
    st.sampled_from(["trace", "layered"]),
    st.integers(0, 10_000),  # seed
    st.integers(1, 5),  # procs
    st.sampled_from([CommModel(1.0, 0.0), CommModel(0.5, 0.25), CommModel(0.0, 0.0)]),
)


def build(family, seed, procs):
    if family == "trace":
        g = gen.random_trace(40, 8, seed=seed)
    else:
        g = gen.layered_random(5, 6, seed=seed)
    pl = cyclic_placement(g, procs)
    return g, pl, owner_compute_assignment(g, pl)


# -- reference implementations (name-keyed, straight from the definitions) --


def ref_list_scheduler(g, placement, assignment, policy, comm, levels=None,
                       stats=None):
    """``stats`` (a dict) counts ``parked`` pushes and the priority
    refreshes of parked tasks (``refresh_parked``)."""
    stats = {} if stats is None else stats
    stats.setdefault("parked", 0)
    stats.setdefault("refresh_parked", 0)
    nprocs = placement.num_procs
    remaining = {t: g.in_degree(t) for t in g.task_names}
    finish, idle = {}, [0.0] * nprocs
    orders = [[] for _ in range(nprocs)]
    heaps = [[] for _ in range(nprocs)]
    version = {t: 0 for t in g.task_names}
    counter = 0
    lvl_rem = [dict() for _ in range(nprocs)]
    min_level = [0] * nprocs
    parked = [[] for _ in range(nprocs)]
    if levels is not None:
        for t in g.task_names:
            d = lvl_rem[assignment[t]]
            d[levels[t]] = d.get(levels[t], 0) + 1
        min_level = [min(d, default=0) for d in lvl_rem]

    def push(t):
        nonlocal counter
        p = assignment[t]
        if levels is not None and levels[t] > min_level[p]:
            heapq.heappush(parked[p], (levels[t], counter, t))
            counter += 1
            stats["parked"] += 1
            return
        counter += 1
        key = tuple(-x for x in policy.priority(t))
        heapq.heappush(heaps[p], (key, counter, t, version[t]))

    def live(p):
        h = heaps[p]
        while h and (h[0][3] != version[h[0][2]] or h[0][2] in finish):
            heapq.heappop(h)
        return bool(h)

    for t in g.task_names:
        if remaining[t] == 0:
            push(t)
    while len(finish) < g.num_tasks:
        cands = [p for p in range(nprocs) if live(p)]
        best_p = min(cands, key=lambda p: (idle[p], p))
        task = heapq.heappop(heaps[best_p])[2]
        est = idle[best_p]
        for pred in g.predecessors(task):
            arr = finish[pred]
            if assignment[pred] != best_p:
                objs = g.edge_objects(pred, task)
                nbytes = sum(g.object(o).size for o in objs)
                arr += comm.cost(nbytes) if objs else comm.latency
            est = max(est, arr)
        finish[task] = idle[best_p] = est + g.task(task).weight
        orders[best_p].append(task)
        if levels is not None:
            d = lvl_rem[best_p]
            d[levels[task]] -= 1
            if d[levels[task]] == 0:
                del d[levels[task]]
                min_level[best_p] = min(d, default=min_level[best_p])
                while parked[best_p] and parked[best_p][0][0] <= min_level[best_p]:
                    _, _, t = heapq.heappop(parked[best_p])
                    counter += 1
                    key = tuple(-x for x in policy.priority(t))
                    heapq.heappush(heaps[best_p], (key, counter, t, version[t]))
        for s in g.successors(task):
            remaining[s] -= 1
            if remaining[s] == 0:
                push(s)
        for u in policy.on_scheduled(task, best_p):
            if u not in finish and remaining.get(u, 1) == 0:
                if levels is not None and levels[u] > min_level[assignment[u]]:
                    stats["refresh_parked"] += 1
                version[u] += 1
                push(u)
    return orders


def ref_perm_vola(g, placement, assignment):
    do = [set() for _ in range(placement.num_procs)]
    for t in g.tasks():
        do[assignment[t.name]].update(t.accesses)
    perm = [{o for o in d if placement[o] == p} for p, d in enumerate(do)]
    vola = [{o for o in d if placement[o] != p} for p, d in enumerate(do)]
    return perm, vola


def ref_memory(sched):
    g = sched.graph
    _perm, vola = ref_perm_vola(g, sched.placement, sched.assignment)
    out = []
    for p, order in enumerate(sched.orders):
        first, last = {}, {}
        for i, t in enumerate(order):
            for o in g.task(t).accesses:
                if o in vola[p]:
                    first.setdefault(o, i)
                    last[o] = i
        out.append({o: (first[o], last[o]) for o in first})
    return out


def ref_gantt(sched, comm):
    g = sched.graph
    pos = {t: (p, i) for p, order in enumerate(sched.orders) for i, t in enumerate(order)}
    finish = {}
    # Fixed point over the combined graph: repeat until every task is timed.
    pending = list(g.task_names)
    while pending:
        rest = []
        for t in pending:
            p, i = pos[t]
            prev = sched.orders[p][i - 1] if i else None
            if (prev is not None and prev not in finish) or any(
                u not in finish for u in g.predecessors(t)
            ):
                rest.append(t)
                continue
            s = finish[prev] if prev is not None else 0.0
            for u in g.predecessors(t):
                arr = finish[u]
                if sched.assignment[u] != p:
                    objs = g.edge_objects(u, t)
                    nbytes = sum(g.object(o).size for o in objs)
                    arr += comm.cost(nbytes) if objs else comm.latency
                s = max(s, arr)
            finish[t] = s + g.task(t).weight
        assert len(rest) < len(pending)
        pending = rest
    return finish


class NameView:
    """Name-keyed view of a :class:`BoundPolicy` for the reference
    scheduler: ``priority(t)`` is the task's key negated back (larger
    first) and ``on_scheduled`` names the ids ``scheduled`` reports."""

    def __init__(self, g, policy):
        gi = graph_index(g)
        self.names, self.tid = gi.names, gi.tid
        self.key, self.scheduled = policy.key, policy.scheduled

    def priority(self, task):
        k = self.key(self.tid[task])
        return tuple(-x for x in k) if isinstance(k, tuple) else (-k,)

    def on_scheduled(self, task, proc):
        if self.scheduled is None:
            return ()
        return [self.names[i] for i in self.scheduled(self.tid[task], proc)]


def static(g, pl, asg, prio):
    """The static policy of ``prio`` (task -> priority, larger first)."""
    mi = mapping_index(g, pl, asg)
    keys = [-prio[t] for t in mi.names]
    return BoundPolicy(keys.__getitem__)


def mpo_policy(g, pl, asg, comm):
    """A fresh MPO policy (its counters change as tasks are placed)."""
    mi = mapping_index(g, pl, asg)
    return MemoryPriorityPolicy.of_mapping(
        graph_index(g), mi, rcp_priorities(g, mi.proc, comm))


def b_level_names(g, pl, asg, comm):
    """:func:`rcp_priorities` keyed by task name."""
    return dict(zip(g.task_names,
                    rcp_priorities(g, mapping_index(g, pl, asg).proc, comm)))


def ref_needs(sched):
    g, asg = sched.graph, sched.assignment
    needs = {t: [] for t in g.task_names}
    for u, v, objs in g.edges():
        if asg[u] == asg[v]:
            continue
        unit = g.task(u).commute or u
        if objs:
            needs[v].extend(("data", m, unit) for m in sorted(objs))
        else:
            needs[v].append(("sync", u))
    return needs


def many_slices(g):
    """Levels non-decreasing along every edge, with a new slice every
    three tasks of a topological order (negative and sparse values)."""
    levels: dict[str, int] = {}
    for i, t in enumerate(g.topological_order()):
        levels[t] = max([3 * (i // 3) - 7] + [levels[u] for u in g.predecessors(t)])
    return levels


# -- properties ---------------------------------------------------------------


@given(cases)
def test_mapped_b_levels_equal_generic_b_levels(case):
    family, seed, procs, comm = case
    g, pl, asg = build(family, seed, procs)
    base = size_edge_cost(g, comm.latency, comm.byte_time)
    assert b_level_names(g, pl, asg, comm) == b_levels(g, mapped_edge_cost(asg, base))


@given(cases)
def test_list_scheduler_matches_reference(case):
    family, seed, procs, comm = case
    g, pl, asg = build(family, seed, procs)
    prio = b_level_names(g, pl, asg, comm)
    levels: dict[str, int] = {}  # non-decreasing along every edge
    for i, t in enumerate(g.topological_order()):
        levels[t] = max([i % 3] + [levels[u] for u in g.predecessors(t)])
    shapes = (
        prio,
        # Rounded and uniform priorities leave some or every choice to
        # the push-order tie-break.
        {t: float(round(b)) for t, b in prio.items()},
        dict.fromkeys(g.task_names, 1.0),
    )
    for pr in shapes:
        policy = static(g, pl, asg, pr)
        for lv in (None, levels, many_slices(g)):
            got = run_list_scheduler(g, pl, asg, policy, comm=comm, levels=lv)
            assert got.orders == ref_list_scheduler(
                g, pl, asg, NameView(g, policy), comm, levels=lv)


@given(cases)
def test_mpo_matches_reference_scheduler(case):
    family, seed, procs, comm = case
    g, pl, asg = build(family, seed, procs)
    want = ref_list_scheduler(
        g, pl, asg, NameView(g, mpo_policy(g, pl, asg, comm)), comm)
    assert mpo_order(g, pl, asg, comm).orders == want


@given(cases)
def test_mpo_policy_under_levels_matches_reference(case):
    family, seed, procs, comm = case
    g, pl, asg = build(family, seed, procs)
    levels: dict[str, int] = {}  # non-decreasing along every edge
    for i, t in enumerate(g.topological_order()):
        levels[t] = max([i % 2] + [levels[u] for u in g.predecessors(t)])
    for lv in (None, levels, many_slices(g)):
        want = ref_list_scheduler(
            g, pl, asg, NameView(g, mpo_policy(g, pl, asg, comm)), comm, levels=lv)
        got = run_list_scheduler(
            g, pl, asg, mpo_policy(g, pl, asg, comm), comm=comm, levels=lv)
        assert got.orders == want


@given(cases)
def test_tree_order_is_the_projection_of_program_order(case):
    family, seed, procs, comm = case
    g, pl, asg = build(family, seed, procs)
    assert tree_order(g, pl, asg, comm).orders == [
        [t for t in g.topological_order() if asg[t] == p] for p in range(procs)]


def test_many_slices_park_tasks_and_refresh_parked_ones():
    """Pinned cases that reach the slice gate's parked paths — tasks
    park, and MPO refreshes the priority of a parked task — match the
    reference."""
    comm = CommModel(1.0, 0.0)
    stats: dict = {}
    for seed in range(20):
        for family in ("trace", "layered"):
            g, pl, asg = build(family, seed, 2)
            levels = many_slices(g)
            want = ref_list_scheduler(
                g, pl, asg, NameView(g, mpo_policy(g, pl, asg, comm)),
                comm, levels=levels, stats=stats)
            got = run_list_scheduler(
                g, pl, asg, mpo_policy(g, pl, asg, comm), comm=comm, levels=levels)
            assert got.orders == want
    assert stats["parked"] > 0 and stats["refresh_parked"] > 0, stats


@given(cases)
def test_liveness_gantt_and_tables_match_reference(case):
    family, seed, procs, comm = case
    g, pl, asg = build(family, seed, procs)
    assert perm_vola_sets(g, pl, asg) == ref_perm_vola(g, pl, asg)
    for sched in (rcp_order(g, pl, asg, comm), dts_order(g, pl, asg, comm),
                  tree_order(g, pl, asg, comm)):
        prof = analyze_memory(sched)
        assert [pp.span for pp in prof.procs] == ref_memory(sched)
        assert gantt(sched, comm).finish == ref_gantt(sched, comm)
        nt = name_tables(CompiledSchedule(sched, profile=prof))
        assert nt.needs == ref_needs(sched)
        assert sum(nt.pending0.values()) == sum(
            len({r for r in reqs}) for reqs in ref_needs(sched).values())


@given(cases)
def test_value_equal_mappings_give_equal_results(case):
    """A rebuilt equal placement/assignment shares the index and yields
    the same schedule; a mutated assignment does not reuse stale data."""
    family, seed, procs, comm = case
    g, pl, asg = build(family, seed, procs)
    first = mpo_order(g, pl, asg, comm)
    again = mpo_order(g, Placement(pl.num_procs, dict(pl.owner)), dict(asg), comm)
    assert first.orders == again.orders
    moved = dict(asg)
    t = g.task_names[-1]
    moved[t] = (asg[t] + 1) % procs
    policy = static(g, pl, moved, b_level_names(g, pl, moved, comm))
    got = run_list_scheduler(g, pl, moved, policy, comm=comm)
    assert got.orders == ref_list_scheduler(g, pl, moved, NameView(g, policy), comm)

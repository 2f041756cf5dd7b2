"""The array lowering and the id-space DCG equal their frozen references.

``repro.machine.compiled._lower_mapping`` numbers every message, sync,
group and address key in bulk over the graph index's edge table;
``reference_lowering.reference_lower_mapping`` is the per-edge Python
pass it replaced.  ``repro.core.dcg.build_dcg`` works in task and
object ids; ``reference_dcg.reference_build_dcg`` is the name-keyed
construction.  Both pairs must agree exactly, field by field, on random
DAGs with commuting groups and synchronisation edges at P 1–6.  Run
with ``REPRO_VERIFY_IR=1`` the lowering is also checked by the IR
verifier, since it is built through ``lower_schedule``.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
from hypothesis import given, strategies as st
from reference_dcg import reference_build_dcg
from reference_dcg import task_association as reference_association
from reference_lowering import reference_lower_mapping

from repro.analysis.irverify import verify_lowering
from repro.core import block_placement, cyclic_placement, owner_compute_assignment
from repro.core.dcg import build_dcg, task_association
from repro.core.index import graph_index
from repro.core.dts import dts_order
from repro.core.mpo import mpo_order
from repro.core.rcp import rcp_order
from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder
from repro.machine.compiled import MappingLowering, lower_schedule
from repro.machine.simulator import CompiledSchedule

#: every table of a lowering (not its index reference or cost memo) the
#: reference builds too; the group tables that replaced its
#: address-knowledge keys are pinned to those keys instead
GROUP_TABLES = ("od_grp", "grp_at", "grp_src")
TABLES = [f for f in MappingLowering.__slots__
          if f not in ("gi", "ids", "_costs", *GROUP_TABLES)]


def commuting_trace(num_tasks, num_objects, seed):
    """A random access trace (sync edges from anti-dependences) in which
    some read-modify-writes come in commuting bursts on one object."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder(materialize_inputs=True)
    for i in range(num_objects):
        b.add_object(f"d{i}", int(rng.integers(1, 5)))
    i = 0
    while i < num_tasks:
        acc = int(rng.integers(num_objects))
        burst = int(rng.integers(2, 5)) if rng.random() < 0.3 else 1
        for k in range(burst):
            other = int(rng.integers(num_objects))
            reads = tuple(dict.fromkeys((f"d{other}", f"d{acc}")))
            b.add_task(
                f"T{i}", reads=reads, writes=(f"d{acc}",),
                weight=float(rng.uniform(0.5, 2.0)),
                commute=f"g{i - k}" if burst > 1 else None,
            )
            i += 1
    return b.build()


def build_graph(family, seed):
    if family == "commuting":
        return commuting_trace(40, 8, seed)
    if family == "trace":
        return gen.random_trace(40, 8, seed=seed)
    if family == "layered":
        return gen.layered_random(5, 6, seed=seed)
    return gen.reduction_tree(3 + seed % 6)


cases = st.tuples(
    st.sampled_from(["commuting", "trace", "layered", "reduction"]),
    st.integers(0, 10_000),  # seed
    st.integers(1, 6),  # procs
    st.sampled_from([cyclic_placement, block_placement]),
)


def plain(values):
    """True when ``values`` is a list of plain Python ints or bools (the
    engine's hot loop indexes lists, not arrays)."""
    return type(values) is list and all(type(v) in (int, bool) for v in values)


@given(cases)
def test_lowering_equals_frozen_reference(case):
    family, seed, procs, placer = case
    g = build_graph(family, seed)
    pl = placer(g, procs)
    asg = owner_compute_assignment(g, pl)
    gi = graph_index(g)
    want = reference_lower_mapping(g, gi, gi.mapping(pl, asg))
    for order in (rcp_order, mpo_order, dts_order):
        cs = CompiledSchedule(order(g, pl, asg))
        got = lower_schedule(cs).mapping
        for field in TABLES:
            assert getattr(got, field) == getattr(want, field), field
        for field in ("pending0", "noisy", "od_ptr", "od_mk", "wait_tid",
                      "cons_mk", "grp_of", *GROUP_TABLES, "mk_need0"):
            assert plain(getattr(got, field)), field
        # A message's (dest, object) group is its address-knowledge key
        # (owner, object, dest) because its sender is the object's owner.
        oids = gi.object_names
        assert [pl.owner[oids[o]] for o in got.od_oid] == \
            [got.mk_src[mk] for mk in got.od_mk]
        assert len(set(zip(want.od_ak, got.od_grp))) == want.num_ak \
            == got.num_grp
        nobj = len(oids)
        assert got.grp_at == [want.grp_index.get(k, -1)
                              for k in range(procs * nobj)]
        # A package from dest naming an object teaches its reader the
        # address only when the reader is the key's owner.
        for akey in want.ak_index:
            owner_obj, dest = divmod(akey, procs)
            owner, o = divmod(owner_obj, nobj)
            assert got.grp_src[got.grp_at[dest * nobj + o]] == owner
        assert verify_lowering(cs) == []


def test_lowering_covers_commuting_groups_and_sync_edges():
    """The random families reach both special cases of the lowering."""
    g = commuting_trace(40, 8, 3)
    assert any(len(ms) > 1 for ms in g.commute_groups().values())
    pl = cyclic_placement(g, 3)
    ml = lower_schedule(CompiledSchedule(
        rcp_order(g, pl, owner_compute_assignment(g, pl)))).mapping
    assert ml.num_sk > 0 and ml.num_mk > 0
    assert set(ml.mk_uname) & set(g.commute_groups())  # a group's message


@given(st.sampled_from(["commuting", "trace", "layered", "reduction"]),
       st.integers(0, 10_000))
def test_index_rows_equal_the_maps(family, seed):
    """The succ/pred rows sliced from the edge table are the rows read
    straight off the successor and predecessor maps, in map order."""
    g = build_graph(family, seed)
    gi = graph_index(g)
    tid, size = gi.tid, gi.obj_size

    def rows(nmap):
        return tuple(
            tuple((tid[v], sum(size[o] for o in objs) if objs else -1)
                  for v, objs in nmap[name].items())
            for name in gi.names
        )

    assert gi.succ == rows(g.successor_map())
    assert gi.pred == rows(g.predecessor_map())
    assert gi.in_degree == [len(r) for r in gi.pred]


def fanned_edge_graph():
    """One edge carries six objects, and more sync edges than objects
    follow it (later writers after a reader)."""
    b = GraphBuilder(materialize_inputs=True)
    objs = [f"x{i}" for i in range(6)]
    for i, o in enumerate(objs):
        b.add_object(o, i + 1)
    b.add_task("T0", writes=tuple(objs))
    b.add_task("T1", reads=tuple(objs), writes=())
    for k in range(3):
        b.add_task(f"W{k}", writes=(objs[k],))
    return b.build()


#: Run in a fresh interpreter: the fanned edge's object set iterates in
#: salted hash order there.
SEED_SCRIPT = """
from reference_lowering import reference_lower_mapping
from test_props_lowering import TABLES, fanned_edge_graph
from repro.core.index import graph_index
from repro.core.placement import Placement
from repro.machine.compiled import _lower_mapping

g = fanned_edge_graph()
gi = graph_index(g)
ptr, oid = gi.edge_ptr.tolist(), gi.edge_oid.tolist()
for a, b in zip(ptr, ptr[1:]):
    assert oid[a:b] == sorted(oid[a:b]), oid
for procs in (2, 3):
    owner = {o: i % procs for i, o in enumerate(gi.object_names)}
    asg = {t: i % procs for i, t in enumerate(g.task_names)}
    mi = gi.mapping(Placement(procs, owner), asg)
    got = _lower_mapping(g, gi, mi)
    want = reference_lower_mapping(g, gi, mi)
    for field in TABLES:
        assert getattr(got, field) == getattr(want, field), field
    print([getattr(got, field) for field in TABLES])
"""


def test_lowering_does_not_depend_on_the_hash_seed():
    """An edge's objects are numbered in sorted-oid order whatever the
    hash seed, also when sync edges outnumber the objects."""
    g = fanned_edge_graph()
    assert len(graph_index(g).edge_oid) < len(graph_index(g).edge_u)
    here = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parents[1] / "src"), str(here)])
    outs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
        run = subprocess.run([sys.executable, "-c", SEED_SCRIPT], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outs.add(run.stdout)
    assert len(outs) == 1


@given(st.sampled_from(["commuting", "trace", "layered", "reduction"]),
       st.integers(0, 10_000))
def test_dcg_equals_frozen_reference(family, seed):
    g = build_graph(family, seed)
    for t in g.task_names:
        assert task_association(g, t) == reference_association(g, t)
    got, want = build_dcg(g), reference_build_dcg(g)
    assert got.succ == want.succ
    assert list(got.succ) == list(want.succ)
    assert got.component == want.component
    assert got.comp_objects == want.comp_objects
    assert got.comp_tasks == want.comp_tasks

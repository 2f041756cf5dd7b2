"""The shared inspector index: what is shared, and when it is not."""

import gc
import weakref

import pytest

from repro.analysis import certified_bounds
from repro.core import cyclic_placement, owner_compute_assignment
from repro.core import dcg as dcg_mod
from repro.core import rcp as rcp_mod
from repro.core.dts import dts_order
from repro.core.index import MAX_MAPPINGS, graph_index, mapping_index
from repro.core.mpo import mpo_order
from repro.core.placement import Placement
from repro.core.rcp import rcp_order
from repro.errors import PlacementError
from repro.experiments.common import ExperimentContext
from repro.graph import generators as gen
from repro.graph.taskgraph import TaskGraph
from repro.graph.tasks import Task
from repro.machine.reference import name_tables
from repro.machine.simulator import CompiledSchedule


def case(procs=3, seed=1):
    g = gen.random_trace(40, 8, seed=seed)
    pl = cyclic_placement(g, procs)
    return g, pl, owner_compute_assignment(g, pl)


class TestSharing:
    def test_graph_index_is_shared_per_frozen_graph(self):
        g, _, _ = case()
        assert graph_index(g) is graph_index(g)
        assert graph_index(g).names == g.task_names

    def test_equal_mappings_share_one_index(self):
        g, pl, asg = case()
        again = Placement(pl.num_procs, dict(pl.owner))
        assert mapping_index(g, pl, asg) is mapping_index(g, again, dict(asg))

    def test_different_mappings_do_not(self):
        g, pl, asg = case()
        moved = dict(asg)
        moved[g.task_names[-1]] = (asg[g.task_names[-1]] + 1) % 3
        assert mapping_index(g, pl, asg) is not mapping_index(g, pl, moved)
        other = cyclic_placement(g, 2)
        assert mapping_index(g, pl, asg) is not mapping_index(
            g, other, owner_compute_assignment(g, other))

    def test_mutated_assignment_is_not_served_stale(self):
        g, pl, asg = case()
        mi = mapping_index(g, pl, asg)
        t = g.task_names[-1]
        asg[t] = (asg[t] + 1) % 3
        fresh = mapping_index(g, pl, asg)
        assert fresh is not mi
        assert fresh.proc[-1] == asg[t]

    def test_repeated_lookup_reuses_the_key_until_a_mutation(self):
        """A repeated lookup of an unchanged mapping does not read the
        assignment task by task; mutating the assignment or the owner
        map after a lookup gives a fresh index, never a stale one."""
        class Counting(dict):
            reads = 0

            def __getitem__(self, key):
                Counting.reads += 1
                return super().__getitem__(key)

        g, pl, asg = case()
        asg = Counting(asg)
        first = mapping_index(g, pl, asg)
        Counting.reads = 0
        assert mapping_index(g, pl, asg) is first
        assert mapping_index(g, Placement(pl.num_procs, dict(pl.owner)),
                             dict(asg)) is first
        assert Counting.reads == 0
        t = g.task_names[0]
        asg[t] = (asg[t] + 1) % 3
        moved = mapping_index(g, pl, asg)
        assert moved is not first and moved.proc[0] == asg[t]
        owner = dict(pl.owner)
        o = graph_index(g).object_names[0]
        pl.owner[o] = (owner[o] + 1) % 3  # a mutated owner map, too
        try:
            rehomed = mapping_index(g, pl, asg)
            assert rehomed is not moved and rehomed.owner(o) == pl.owner[o]
        finally:
            pl.owner[o] = owner[o]

    def test_lru_keeps_the_last_mappings(self):
        g = gen.random_trace(40, 8, seed=3)
        keep = []
        for procs in range(1, MAX_MAPPINGS + 2):
            pl = cyclic_placement(g, procs)
            keep.append((pl, owner_compute_assignment(g, pl)))
        first = mapping_index(g, *keep[0])
        for pl, asg in keep[1:]:
            mapping_index(g, pl, asg)
        assert mapping_index(g, *keep[0]) is not first  # evicted
        assert mapping_index(g, *keep[-1]) is mapping_index(g, *keep[-1])

    def test_forget_drops_only_that_mapping(self):
        g, pl, asg = case()
        other = cyclic_placement(g, 2)
        other_asg = owner_compute_assignment(g, other)
        gi = graph_index(g)
        dcg = dcg_mod.shared_dcg(g)
        kept = mapping_index(g, other, other_asg)
        first = mapping_index(g, pl, asg)
        # an equal mapping rebuilt by value is forgotten too
        gi.forget(Placement(pl.num_procs, dict(pl.owner)), dict(asg))
        assert mapping_index(g, pl, asg) is not first
        assert mapping_index(g, other, other_asg) is kept
        assert dcg_mod.shared_dcg(g).succ is dcg.succ  # graph memo kept
        gi.forget(other, other_asg)
        gi.forget(other, other_asg)  # forgetting twice is a no-op

    def test_unfrozen_graphs_are_never_cached(self):
        g = TaskGraph()
        g.add_object("x")
        g.add_task(Task("a", writes=("x",)))
        assert graph_index(g) is not graph_index(g)
        assert graph_index(g).names == ["a"]

    def test_index_dies_with_its_graph(self):
        g, pl, asg = case()
        sched = dts_order(g, pl, asg)
        CompiledSchedule(sched)
        gone = weakref.ref(g)
        del g, pl, asg, sched
        gc.collect()
        assert gone() is None

    def test_unowned_objects_fail_like_placement(self):
        g, pl, asg = case()
        partial = Placement(pl.num_procs, {})
        mi = mapping_index(g, partial, asg)  # assignment-only use is fine
        assert len(mi.proc) == g.num_tasks
        with pytest.raises(PlacementError, match="has no owner"):
            mi.vola_oids


class TestAmortisation:
    def test_heuristics_of_one_mapping_compute_b_levels_once(self, monkeypatch):
        g, pl, asg = case(seed=5)
        calls = []
        real = rcp_mod.rcp_priorities
        monkeypatch.setattr(
            rcp_mod, "rcp_priorities",
            lambda *a, **k: calls.append(1) or real(*a, **k))
        rcp_order(g, pl, asg)
        mpo_order(g, pl, asg)
        dts_order(g, pl, asg)
        assert len(calls) == 1
        # The certified bounds read the same table.
        certified_bounds(g, pl, asg)
        assert len(calls) == 1

    def test_dts_builds_the_dcg_once_per_graph(self, monkeypatch):
        g, _, _ = case(seed=6)
        calls = []
        real = dcg_mod.build_dcg
        monkeypatch.setattr(
            dcg_mod, "build_dcg", lambda graph: calls.append(1) or real(graph))
        for procs in (1, 2, 4):
            pl = cyclic_placement(g, procs)
            dts_order(g, pl, owner_compute_assignment(g, pl))
        assert len(calls) == 1

    def test_compiled_schedules_of_one_mapping_share_tables(self):
        g, pl, asg = case(seed=7)
        a = name_tables(CompiledSchedule(rcp_order(g, pl, asg)))
        b = name_tables(CompiledSchedule(mpo_order(g, pl, asg)))
        assert a.needs is b.needs and a.data_waiters is b.data_waiters

    def test_context_builds_each_mapping_once(self):
        ctx = ExperimentContext()
        placement, assignment = ctx.mapping("etree15", 4)
        assert ctx.mapping("etree15", 4)[0] is placement
        for h in ("rcp", "mpo", "dts"):
            assert ctx.schedule("etree15", 4, h).placement is placement

"""Tests for graph/schedule repetition (iterative unrolling)."""

import numpy as np
import pytest

from repro.core import analyze_memory, gantt, mpo_order
from repro.core import owner_compute_assignment
from repro.graph.generators import chain, reduction_tree
from repro.graph.repeat import base_name, iter_name, repeat_graph, repeat_schedule
from repro.machine import UNIT_MACHINE, simulate
from repro.nbody import build_nbody
from repro.rapid.executor import execute_serial


class TestRepeatGraph:
    def test_task_count(self):
        g = chain(4)
        rg = repeat_graph(g, 3)
        assert rg.num_tasks == 12
        assert rg.num_objects == g.num_objects

    def test_names(self):
        assert iter_name("T0", 2) == "T0#it2"
        assert base_name("T0#it2") == "T0"
        assert base_name("plain") == "plain"

    def test_cross_iteration_chaining(self):
        g = chain(3)
        rg = repeat_graph(g, 2)
        # iteration 1's first task reads d0, last written by iteration
        # 0's T0 (write-after-... chained through the object versions).
        assert rg.has_edge(iter_name("T0", 0), iter_name("T1", 0))
        # T0#it1 rewrites d0: output dep from T0#it0's version chain.
        preds = set(rg.predecessors(iter_name("T0", 1)))
        assert any(base_name(p) in ("T0", "T1") for p in preds)

    def test_commute_keys_renamed(self):
        g = reduction_tree(3)
        rg = repeat_graph(g, 2)
        groups = rg.commute_groups()
        assert "acc-sum#it0" in groups and "acc-sum#it1" in groups
        assert len(groups["acc-sum#it0"]) == 3

    def test_bad_n(self):
        with pytest.raises(ValueError):
            repeat_graph(chain(2), 0)

    def test_matches_direct_multistep_build(self):
        """1-step N-body unrolled 3x computes the same trajectory as the
        directly-built 3-step graph."""
        p1 = build_nbody(k=3, steps=1, seed=4)
        p3 = build_nbody(k=3, steps=3, seed=4)
        rg = repeat_graph(p1.graph, 3)
        assert rg.num_tasks == p3.graph.num_tasks
        store = p1.initial_store()
        execute_serial(rg, store)
        assert np.allclose(
            p1.gather_positions(store), p3.reference_trajectory(), atol=1e-12
        )


class TestRepeatSchedule:
    def setup_method(self):
        self.prob = build_nbody(k=3, steps=1, seed=2)
        pl = self.prob.placement(3)
        asg = self.prob.assignment(pl)
        self.s1 = mpo_order(self.prob.graph, pl, asg)

    def test_valid_and_gantt(self):
        s3 = repeat_schedule(self.s1, 3)
        s3.validate()
        assert gantt(s3).makespan > 0

    def test_iteration_meta(self):
        assert repeat_schedule(self.s1, 2).meta["iterations"] == 2

    def test_simulatable_at_min_mem(self):
        s3 = repeat_schedule(self.s1, 2)
        prof = analyze_memory(s3)
        res = simulate(s3, spec=UNIT_MACHINE, capacity=prof.min_mem)
        assert res.peak_memory <= prof.min_mem

    def test_memory_does_not_grow_with_iterations(self):
        """Volatile liveness across iterations recycles: unrolling more
        does not increase MIN_MEM."""
        m2 = analyze_memory(repeat_schedule(self.s1, 2)).min_mem
        m4 = analyze_memory(repeat_schedule(self.s1, 4)).min_mem
        assert m4 == m2

    def test_run_pipelined_api(self):
        from repro.machine.spec import UNIT_MACHINE as UM
        from repro.rapid.api import ParallelProgram

        prog = ParallelProgram(schedule=self.s1, spec=UM)
        res = prog.run_pipelined(3)
        assert res.parallel_time > 0


class TestPipeliningBenefit:
    def _stage_pipeline(self):
        from repro.core.placement import placement_from_dict
        from repro.graph import GraphBuilder

        b = GraphBuilder(materialize_inputs=False)
        for o in ("a", "b", "c"):
            b.add_object(o, 1)
        b.add_task("s1", writes=("a",), weight=1.0)
        b.add_task("s2", reads=("a",), writes=("b",), weight=1.0)
        b.add_task("s3", reads=("b",), writes=("c",), weight=1.0)
        g = b.build()
        pl = placement_from_dict(3, {"a": 0, "b": 1, "c": 2})
        return g, pl, owner_compute_assignment(g, pl)

    def test_stage_pipeline_overlaps(self):
        """A 3-stage pipeline across 3 processors overlaps iterations:
        the unrolled makespan beats the barrier estimate n * PT_1."""
        g, pl, asg = self._stage_pipeline()
        s1 = mpo_order(g, pl, asg)
        one = gantt(s1).makespan
        s8 = repeat_schedule(s1, 8)
        assert gantt(s8).makespan < 8 * one

    def test_buffer_reuse_can_serialise(self):
        """The dual effect — and why the paper discusses renaming [4]:
        re-using one buffer adds an anti-dependence handshake, so a
        tight producer/consumer loop can run *slower* than the barrier
        estimate.  Both behaviours are faithfully captured."""
        from repro.core.placement import placement_from_dict
        from repro.graph import GraphBuilder

        b = GraphBuilder(materialize_inputs=False)
        b.add_object("a", 1)
        b.add_object("b", 1)
        b.add_task("wa", writes=("a",), weight=3.0)
        b.add_task("rb", reads=("a",), writes=("b",), weight=1.0)
        g = b.build()
        pl = placement_from_dict(2, {"a": 0, "b": 1})
        asg = owner_compute_assignment(g, pl)
        s1 = mpo_order(g, pl, asg)
        one = gantt(s1).makespan
        s4 = repeat_schedule(s1, 4)
        # WAR handshake: wa#i+1 waits for rb#i's completion notification.
        assert gantt(s4).makespan >= 4 * one

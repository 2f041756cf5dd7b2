"""Unit tests for DCG construction and DTS ordering (section 4.2)."""

import pytest

from repro.core import (
    analyze_memory,
    cyclic_placement,
    dts_order,
    gantt,
    owner_compute_assignment,
)
from repro.core.dcg import build_dcg, slice_volatile_space, task_association
from repro.core.dts import dts_space_bound, merge_slices
from repro.errors import SchedulingError
from repro.graph import GraphBuilder
from repro.graph.generators import chain, random_trace
from repro.graph.paper_example import (
    paper_assignment,
    paper_example_graph,
    paper_placement,
)


class TestAssociation:
    def g(self):
        b = GraphBuilder(materialize_inputs=False)
        for o in ("a", "b", "c"):
            b.add_object(o)
        b.add_task("producer", writes=("a",))
        b.add_task("reader", reads=("a",), writes=("b",))
        b.add_task("rmw", reads=("c",), writes=("c",))
        b.add_task("multi", reads=("a", "b"), writes=("c",))
        return b.build()

    def test_pure_producer_assoc_with_written(self):
        g = self.g()
        assert task_association(g, "producer") == ("a",)

    def test_reader_assoc_with_read(self):
        g = self.g()
        assert task_association(g, "reader") == ("a",)

    def test_rmw_single_object(self):
        g = self.g()
        assert task_association(g, "rmw") == ("c",)

    def test_multi_read_assoc(self):
        g = self.g()
        assert set(task_association(g, "multi")) == {"a", "b"}


class TestDCG:
    def test_multi_assoc_nodes_strongly_connected(self):
        b = GraphBuilder(materialize_inputs=False)
        for o in ("a", "b", "c"):
            b.add_object(o)
        b.add_task("wa", writes=("a",))
        b.add_task("wb", writes=("b",))
        b.add_task("m", reads=("a", "b"), writes=("c",))
        dcg = build_dcg(b.build())
        # a and b are in the same SCC (the doubly-directed edge rule).
        assert dcg.component["a"] == dcg.component["b"]
        assert not dcg.is_acyclic()

    def test_chain_graph_dcg(self):
        g = chain(4)
        dcg = build_dcg(g)
        assert dcg.is_acyclic()
        # one slice per object with tasks, in chain order
        orders = [objs[0] for objs in dcg.comp_objects]
        assert orders == sorted(orders, key=lambda o: int(o[1:]))

    def test_each_task_in_one_slice(self):
        g = random_trace(60, 12, seed=3)
        dcg = build_dcg(g)
        sliced = [t for tasks in dcg.comp_tasks for t in tasks]
        assert sorted(sliced) == sorted(g.task_names)

    def test_paper_example_unique_order(self):
        dcg = build_dcg(paper_example_graph())
        assert [o[0] for o in dcg.comp_objects] == list(
            ("d1", "d3", "d4", "d5", "d7", "d8", "d2")
        )

    def test_slice_volatile_space(self):
        g = paper_example_graph()
        pl = paper_placement()
        asg = paper_assignment(g, pl)
        dcg = build_dcg(g)
        h = slice_volatile_space(dcg, pl, asg)
        # unit objects and acyclic DCG: every slice needs at most one
        # volatile object per processor.
        assert max(h) == 1


class TestMergeSlices:
    def test_all_fit(self):
        assert merge_slices([1, 1, 1], avail_volatile=10) == [0, 0, 0]

    def test_none_fit_together(self):
        assert merge_slices([5, 5, 5], avail_volatile=6) == [0, 1, 2]

    def test_partial(self):
        assert merge_slices([2, 2, 2, 2], avail_volatile=5) == [0, 0, 1, 1]

    def test_empty(self):
        assert merge_slices([], 10) == []

    def test_figure6_semantics(self):
        """space_req resets to H(L_i) on overflow (Figure 6 lines 8-10):
        after [3,3] fills the budget of 6, slice 2 starts fresh with
        req=1 and slice 3 merges into it (1+3 <= 6)."""
        assert merge_slices([3, 3, 1, 3], avail_volatile=6) == [0, 0, 1, 1]

    def test_over_budget_slice_raises(self):
        """A single slice above the budget can never execute; merging
        must fail loudly instead of emitting a non-executable slicing."""
        with pytest.raises(SchedulingError):
            merge_slices([3, 9, 3], avail_volatile=6)

    def test_non_positive_budget_raises(self):
        with pytest.raises(SchedulingError):
            merge_slices([1, 2], avail_volatile=0)
        with pytest.raises(SchedulingError):
            merge_slices([1, 2], avail_volatile=-4)

    def test_dts_order_falls_back_to_unmerged(self):
        """dts_order with a capacity too small for merging degrades to
        plain DTS instead of raising (downstream MIN_MEM checks decide
        executability)."""
        g = paper_example_graph()
        pl = paper_placement()
        asg = paper_assignment(g, pl)
        plain = dts_order(g, pl, asg)
        tiny = dts_order(g, pl, asg, avail_mem=1)
        assert tiny.meta["heuristic"] == "DTS"
        assert tiny.orders == plain.orders


class TestDeterminism:
    def test_dts_order_is_hash_seed_independent(self):
        """The DCG condensation (and hence the DTS slice order) must not
        depend on the interpreter's string hash seed — sweeps have to be
        reproducible across invocations and worker processes."""
        import os
        import subprocess
        import sys

        prog = (
            "from repro.graph.generators import random_trace\n"
            "from repro.core import cyclic_placement, dts_order, "
            "owner_compute_assignment\n"
            "g = random_trace(60, 12, seed=3)\n"
            "pl = cyclic_placement(g, 3)\n"
            "s = dts_order(g, pl, owner_compute_assignment(g, pl))\n"
            "print(repr(s.orders))\n"
        )
        outs = set()
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            out = subprocess.run(
                [sys.executable, "-c", prog],
                capture_output=True, text=True, check=True, env=env,
            ).stdout
            outs.add(out)
        assert len(outs) == 1


class TestDTS:
    def test_slice_major_execution(self):
        """On each processor, slice indices are non-decreasing."""
        g = paper_example_graph()
        pl = paper_placement()
        asg = paper_assignment(g, pl)
        dcg = build_dcg(g)
        slice_of = dcg.slice_of()
        s = dts_order(g, pl, asg)
        for order in s.orders:
            indices = [slice_of[t] for t in order]
            assert indices == sorted(indices)

    def test_theorem2_bound_random(self):
        for seed in range(8):
            g = random_trace(60, 10, seed=seed)
            pl = cyclic_placement(g, 3)
            asg = owner_compute_assignment(g, pl)
            s = dts_order(g, pl, asg)
            assert analyze_memory(s).min_mem <= dts_space_bound(g, pl, asg)

    def test_merging_reduces_or_keeps_slices(self):
        g = paper_example_graph()
        pl = paper_placement()
        asg = paper_assignment(g, pl)
        plain = dts_order(g, pl, asg)
        merged = dts_order(g, pl, asg, avail_mem=9)
        assert merged.meta["num_slices"] <= plain.meta["num_slices"]

    def test_merged_still_executable_under_budget(self):
        g = paper_example_graph()
        pl = paper_placement()
        asg = paper_assignment(g, pl)
        for cap in (7, 8, 9, 11):
            merged = dts_order(g, pl, asg, avail_mem=cap)
            assert analyze_memory(merged).min_mem <= cap

    def test_merging_helps_time(self):
        """With ample memory, merged DTS should not be slower than plain
        DTS (more critical-path freedom)."""
        g = random_trace(80, 15, seed=4)
        pl = cyclic_placement(g, 4)
        asg = owner_compute_assignment(g, pl)
        plain = gantt(dts_order(g, pl, asg)).makespan
        merged = gantt(dts_order(g, pl, asg, avail_mem=10**9)).makespan
        assert merged <= plain * 1.05

    def test_meta(self):
        g = paper_example_graph()
        pl = paper_placement()
        asg = paper_assignment(g, pl)
        s = dts_order(g, pl, asg)
        assert s.meta["heuristic"] == "DTS"
        assert s.meta["dcg_acyclic"] is True
        s2 = dts_order(g, pl, asg, avail_mem=8)
        assert s2.meta["heuristic"] == "DTS+merge"

"""Tests of the tree-specialised ordering (:mod:`repro.core.treesched`)."""

import pytest

from repro.core import (
    analyze_memory,
    cyclic_placement,
    gantt,
    mpo_order,
    owner_compute_assignment,
    tree_order,
)
from repro.errors import SchedulingError
from repro.experiments import ExperimentContext
from repro.graph import Task, TaskGraph
from repro.graph import generators as gen
from repro.graph.paper_example import (
    paper_assignment,
    paper_example_graph,
    paper_placement,
)
from repro.opt.exact import solve

TINY_TREES = [
    ("chain4", lambda: gen.chain(4, size=2)),
    ("chain6", lambda: gen.chain(6)),
    ("in2", lambda: gen.in_tree(2, size=2)),
    ("in3", lambda: gen.in_tree(3)),
    ("out2", lambda: gen.out_tree(2, size=2)),
    ("out3", lambda: gen.out_tree(3)),
]


def tree_case(build, procs):
    g = build()
    pl = cyclic_placement(g, procs)
    return g, pl, owner_compute_assignment(g, pl)


class TestTreeOrder:
    def test_valid_on_the_paper_example(self):
        g = paper_example_graph()
        pl = paper_placement()
        s = tree_order(g, pl, paper_assignment(g, pl))
        s.validate()
        assert s.meta["heuristic"] == "TREE"

    def test_unfrozen_graph_checks_the_assignment(self):
        """A task without a processor is refused with the assignment
        check's error whether or not the graph is frozen."""
        g = TaskGraph()
        g.add_object("x", 1)
        g.add_task(Task("t1", writes=("x",)))
        g.add_task(Task("t2", reads=("x",)))
        g.add_edge("t1", "t2", "x")
        pl = cyclic_placement(g, 2)
        with pytest.raises(SchedulingError,
                           match="task 't2' has no processor assignment"):
            tree_order(g, pl, {"t1": 0})

    @pytest.mark.parametrize("seed", range(5))
    def test_valid_on_general_dags(self, seed):
        # Not a tree at all — the projection must still be a legal
        # schedule (it serialises a topological order per processor).
        g = gen.random_trace(30, 6, seed=seed)
        pl = cyclic_placement(g, 3)
        s = tree_order(g, pl, owner_compute_assignment(g, pl))
        s.validate()
        assert gantt(s).makespan > 0

    @pytest.mark.parametrize("procs", (2, 3))
    @pytest.mark.parametrize("name,build", TINY_TREES)
    def test_matches_proved_memory_optimum_on_tiny_trees(
        self, name, build, procs
    ):
        g, pl, asg = tree_case(build, procs)
        res = solve(g, pl, asg, objective="memory")
        assert res.proved
        assert analyze_memory(tree_order(g, pl, asg)).min_mem == res.value


class TestElimTreeWorkload:
    @pytest.fixture(scope="class")
    def etree15(self):
        ctx = ExperimentContext()
        prob = ctx.problem("etree15")
        return ctx, prob

    @pytest.mark.parametrize("procs", (2, 4))
    def test_peak_no_worse_than_mpo(self, etree15, procs):
        ctx, prob = etree15
        pl = prob.placement(procs)
        asg = prob.assignment(pl)
        comm = ctx.spec.comm_model()
        tree_peak = analyze_memory(
            tree_order(prob.graph, pl, asg, comm)
        ).min_mem
        mpo_peak = analyze_memory(
            mpo_order(prob.graph, pl, asg, comm)
        ).min_mem
        assert tree_peak <= mpo_peak

    def test_workload_shape(self, etree15):
        _ctx, prob = etree15
        assert prob.n == prob.graph.num_tasks == prob.graph.num_objects
        # md ordering must leave actual tree parallelism (the natural
        # band ordering degenerates to a path).
        parent_of = prob.parent
        children = [0] * len(parent_of)
        for v, p in enumerate(parent_of):
            if p != -1:
                children[p] += 1
        assert max(children) >= 2

"""Unit tests for the RCP / MPO ordering heuristics and the shared
list-scheduling engine."""

import pytest

from repro.core import (
    CommModel,
    analyze_memory,
    cyclic_placement,
    gantt,
    mpo_order,
    owner_compute_assignment,
    rcp_order,
    rcp_priorities,
)
from repro.analysis.bounds import certified_bounds, time_bounds
from repro.core.dts import dts_order
from repro.core.index import graph_index, mapping_index
from repro.core.listsched import BoundPolicy, run_list_scheduler
from repro.core.mpo import MemoryPriorityPolicy
from repro.opt.exact import solve
from repro.errors import SchedulingError
from repro.graph.generators import chain, fork_join, layered_random, random_trace
from repro.graph.paper_example import (
    paper_assignment,
    paper_example_graph,
    paper_placement,
)


def setup(g, p):
    pl = cyclic_placement(g, p)
    asg = owner_compute_assignment(g, pl)
    return pl, asg


class TestEngine:
    def test_orders_are_topological(self):
        g = random_trace(60, 12, seed=1)
        pl, asg = setup(g, 3)
        s = rcp_order(g, pl, asg)
        pos = s.position()
        # every dependence edge must respect processor-local positions
        for u, v, _ in g.edges():
            if asg[u] == asg[v]:
                assert pos[u] < pos[v]

    def test_gantt_valid_for_all(self):
        g = random_trace(60, 12, seed=2)
        pl, asg = setup(g, 4)
        for fn in (rcp_order, mpo_order):
            assert gantt(fn(g, pl, asg)).makespan > 0

    def test_missing_assignment(self):
        """Every reader of the mapped b-levels refuses a task without a
        processor with the assignment check's error."""
        g = chain(3)
        pl = cyclic_placement(g, 2)
        asg = {"T0": 0, "T2": 1}
        for read in (rcp_order, mpo_order, dts_order, solve, certified_bounds,
                     lambda g, pl, asg: time_bounds(g, asg, pl.num_procs)):
            with pytest.raises(SchedulingError,
                               match="task 'T1' has no processor assignment"):
                read(g, pl, asg)

    def test_static_policy_priority_order(self):
        """Higher priority runs first among simultaneously ready tasks."""
        g = fork_join(1, 3)
        pl = cyclic_placement(g, 1, order=sorted(o.name for o in g.objects()))
        asg = {t: 0 for t in g.task_names}
        prio = {"fork0": 10.0, "mid0_0": 1.0, "mid0_1": 3.0, "mid0_2": 2.0, "join0": 5.0}
        mi = mapping_index(g, pl, asg)
        keys = [-prio[t] for t in mi.names]
        s = run_list_scheduler(g, pl, asg, BoundPolicy(keys.__getitem__))
        order = s.orders[0]
        assert order.index("mid0_1") < order.index("mid0_2") < order.index("mid0_0")

    def test_meta_recorded(self):
        g = chain(3)
        pl, asg = setup(g, 2)
        assert rcp_order(g, pl, asg).meta["heuristic"] == "RCP"
        assert mpo_order(g, pl, asg).meta["heuristic"] == "MPO"


class TestRCP:
    def test_priorities_include_cross_comm(self):
        """The paper's example: blevel(T[7,8]) = 4 with unit costs."""
        g = paper_example_graph()
        pl = paper_placement()
        asg = paper_assignment(g, pl)
        mi = mapping_index(g, pl, asg)
        prio = rcp_priorities(g, mi.proc, CommModel(latency=1.0))
        # T[7,8] -> T[8] (same proc) -> T[8,9] (cross): 1+1+1+1 = 4.
        assert prio[mi.names.index("T[7,8]")] == 4.0

    def test_chain_is_sequential(self):
        g = chain(5)
        pl, asg = setup(g, 2)
        s = rcp_order(g, pl, asg)
        assert gantt(s).makespan >= 5.0

    def test_time_efficiency_vs_arbitrary(self):
        """RCP should not be slower than a naive topological order."""
        from repro.core import Schedule

        g = layered_random(8, 6, seed=3)
        pl, asg = setup(g, 4)
        rcp = gantt(rcp_order(g, pl, asg)).makespan
        orders = [[], [], [], []]
        for t in g.topological_order():
            orders[asg[t]].append(t)
        naive = gantt(Schedule(g, pl, asg, orders)).makespan
        assert rcp <= naive * 1.10  # allow small slack


class TestMPO:
    def test_memory_no_worse_than_rcp_on_paper_example(self):
        g = paper_example_graph()
        pl = paper_placement()
        asg = paper_assignment(g, pl)
        m_rcp = analyze_memory(rcp_order(g, pl, asg)).min_mem
        m_mpo = analyze_memory(mpo_order(g, pl, asg)).min_mem
        assert m_mpo <= m_rcp

    @staticmethod
    def paper_policy():
        """MPO's bound policy on the worked example, and its task ids."""
        g = paper_example_graph()
        pl = paper_placement()
        gi = graph_index(g)
        mi = mapping_index(g, pl, paper_assignment(g, pl))
        return MemoryPriorityPolicy.of_mapping(gi, mi, rcp_priorities(g, mi.proc)), gi.tid

    def test_policy_ratio(self):
        pol, tid = self.paper_policy()
        # The key's first component is the negated memory priority.
        # T[7,8] on P1: d8 permanent (have), d7 volatile unallocated.
        assert -pol.key(tid["T[7,8]"])[0] == pytest.approx(0.5)
        # T[8] on P1 writes only permanent d8.
        assert -pol.key(tid["T[8]"])[0] == pytest.approx(1.0)

    def test_policy_updates_on_allocation(self):
        pol, tid = self.paper_policy()
        # Scheduling T[7,10] on P1 allocates volatile d7.
        changed = pol.scheduled(tid["T[7,10]"], 1)
        assert tid["T[7,8]"] in changed
        assert -pol.key(tid["T[7,8]"])[0] == pytest.approx(1.0)

    def test_mean_memory_reduction_on_random_graphs(self):
        """Across seeds, MPO's MIN_MEM is on average <= RCP's (the
        Figure 7 trend)."""
        wins = ties = losses = 0
        for seed in range(12):
            g = random_trace(80, 16, seed=seed)
            pl, asg = setup(g, 4)
            r = analyze_memory(rcp_order(g, pl, asg)).min_mem
            m = analyze_memory(mpo_order(g, pl, asg)).min_mem
            if m < r:
                wins += 1
            elif m == r:
                ties += 1
            else:
                losses += 1
        assert wins + ties > losses

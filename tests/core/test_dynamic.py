"""Tests for the ETF dynamic-scheduling baseline."""

from repro.core import analyze_memory, gantt, mpo_order, owner_compute_assignment
from repro.core.dynamic import etf_schedule
from repro.core.placement import validate_owner_compute
from repro.graph import TaskGraph
from repro.graph.generators import chain, fork_join, random_trace
from repro.machine import UNIT_MACHINE, simulate


def unfrozen_copy(g):
    """``g`` rebuilt task by task and edge by edge, left unfrozen."""
    u = TaskGraph()
    for o in g.objects():
        u.add_object(o)
    for t in g.tasks():
        u.add_task(t)
    for a, b, objs in g.edges():
        for o in sorted(objs) or [None]:
            u.add_edge(a, b, o)
    return u


class TestETF:
    def test_unfrozen_graph_orders_like_frozen(self):
        g = random_trace(40, 8, seed=1)
        u = unfrozen_copy(g)
        assert not u.frozen
        assert etf_schedule(u, 3).orders == etf_schedule(g, 3).orders

    def test_valid_schedule(self):
        g = random_trace(40, 8, seed=1)
        s = etf_schedule(g, 3)
        s.validate()
        assert gantt(s).makespan > 0

    def test_writers_colocated(self):
        g = random_trace(60, 10, seed=2)
        s = etf_schedule(g, 4)
        validate_owner_compute(g, s.placement, s.assignment)

    def test_chain_stays_on_one_processor(self):
        g = chain(6)
        s = etf_schedule(g, 3)
        assert len({s.assignment[t] for t in g.task_names}) == 1

    def test_uses_parallelism(self):
        g = fork_join(2, 6, weight=3.0)
        serial = g.total_work()
        assert gantt(etf_schedule(g, 4)).makespan < serial

    def test_meta(self):
        g = chain(3)
        assert etf_schedule(g, 2).meta["heuristic"] == "ETF-dynamic"

    def test_simulatable(self):
        g = random_trace(50, 9, seed=4)
        s = etf_schedule(g, 3)
        prof = analyze_memory(s)
        res = simulate(s, spec=UNIT_MACHINE, capacity=prof.min_mem)
        assert res.peak_memory <= prof.min_mem

    def test_memory_oblivious_on_average(self):
        """The related-work argument: the time-greedy dynamic baseline
        tends to need at least as much memory as MPO."""
        worse = better = 0
        for seed in range(8):
            g = random_trace(60, 10, seed=seed)
            s_dyn = etf_schedule(g, 4)
            m_dyn = analyze_memory(s_dyn).min_mem / max(analyze_memory(s_dyn).s1, 1)
            pl = s_dyn.placement
            asg = owner_compute_assignment(g, pl)
            m_mpo = analyze_memory(mpo_order(g, pl, asg)).min_mem / max(
                analyze_memory(s_dyn).s1, 1
            )
            if m_dyn >= m_mpo:
                worse += 1
            else:
                better += 1
        assert worse >= better

"""Integration tests against the paper's worked example (Figures 2/3/5).

These tests assert every quantitative fact the paper states about its
20-task / 11-object example: the PERM/VOLA sets, the MEM_REQ values, the
MIN_MEM progression 9 (RCP) / 8 (MPO) / 7 (DTS), the dead points, the
MAP placement narrative of Figure 3(a), and the DCG slice order of
Figure 5(a).
"""

import pytest

from repro.core import (
    analyze_memory,
    dts_order,
    gantt,
    mem_req_of_task,
    mpo_order,
    plan_maps,
    rcp_order,
)
from repro.core.dcg import build_dcg
from repro.core.dts import dts_space_bound
from repro.core.placement import perm_vola_sets
from repro.errors import NonExecutableScheduleError
from repro.graph.paper_example import (
    DCG_SLICE_ORDER,
    paper_assignment,
    paper_example_graph,
    paper_placement,
    schedule_b,
    schedule_c,
)
from repro.machine import UNIT_MACHINE, simulate


@pytest.fixture(scope="module")
def example():
    g = paper_example_graph()
    pl = paper_placement()
    asg = paper_assignment(g, pl)
    return g, pl, asg


class TestStructure:
    def test_twenty_tasks_eleven_objects(self, example):
        g, _, _ = example
        assert g.num_tasks == 20
        assert g.num_objects == 11

    def test_ownership_cyclic(self, example):
        _, pl, _ = example
        # owner(d_i) = (i-1) mod 2
        assert pl["d1"] == 0 and pl["d2"] == 1 and pl["d11"] == 0

    def test_perm_vola_sets(self, example):
        """Definition 3 sets exactly as printed in section 2."""
        g, pl, asg = example
        perm, vola = perm_vola_sets(g, pl, asg)
        assert perm[0] == {"d1", "d3", "d5", "d7", "d9", "d11"}
        assert perm[1] == {"d2", "d4", "d6", "d8", "d10"}
        assert vola[0] == {"d8"}
        assert vola[1] == {"d1", "d3", "d5", "d7"}


class TestFigure2Schedules:
    def test_min_mem_b_is_9(self, example):
        g, _, _ = example
        assert analyze_memory(schedule_b(g)).min_mem == 9

    def test_min_mem_c_is_8(self, example):
        g, _, _ = example
        assert analyze_memory(schedule_c(g)).min_mem == 8

    def test_mem_req_values(self, example):
        """MEM_REQ(T[8,9], P0) = 7 and MEM_REQ(T[7,8], P1) = 9 in (b)."""
        g, _, _ = example
        prof = analyze_memory(schedule_b(g))
        assert mem_req_of_task(prof, "T[8,9]") == 7
        assert mem_req_of_task(prof, "T[7,8]") == 9

    def test_dead_points_in_b(self, example):
        """'d3 is dead after task T[3,10], d5 is dead after T[5,10]'."""
        g, _, _ = example
        sb = schedule_b(g)
        prof = analyze_memory(sb)
        pos = {t: i for i, t in enumerate(sb.orders[1])}
        dead = prof.procs[1].dead_after
        assert "d3" in dead[pos["T[3,10]"]]
        assert "d5" in dead[pos["T[5,10]"]]

    def test_volatile_sharing_in_c(self, example):
        """In (c) the lifetimes of d7 and d3 are disjoint on P1."""
        g, _, _ = example
        prof = analyze_memory(schedule_c(g))
        span = prof.procs[1].span
        f3, l3 = span["d3"]
        f7, l7 = span["d7"]
        assert l3 < f7 or l7 < f3

    def test_schedules_are_gantt_valid(self, example):
        g, _, _ = example
        assert gantt(schedule_b(g)).makespan > 0
        assert gantt(schedule_c(g)).makespan > 0


class TestFigure3Maps:
    def test_map_narrative_under_capacity_8(self, example):
        """Figure 3(a): executing (c) with 8 units of memory adds a MAP
        right after T[5,10] on P1 that frees d3/d5 and allocates d7."""
        g, _, _ = example
        sc = schedule_c(g)
        plan = plan_maps(analyze_memory(sc), 8)
        p1_maps = plan.points[1]
        assert len(p1_maps) == 2  # the initial MAP plus one more
        pos = {t: i for i, t in enumerate(sc.orders[1])}
        extra = p1_maps[1]
        assert extra.position == pos["T[5,10]"] + 1 == pos["T[7,8]"]
        assert set(extra.frees) >= {"d3", "d5"}
        assert "d7" in extra.allocs
        # The fresh d7 address goes to its owner P0.
        assert extra.notifications == {0: ("d7",)}

    def test_b_not_executable_under_8(self, example):
        g, _, _ = example
        with pytest.raises(NonExecutableScheduleError):
            plan_maps(analyze_memory(schedule_b(g)), 8)

    def test_c_not_executable_under_7(self, example):
        g, _, _ = example
        with pytest.raises(NonExecutableScheduleError):
            plan_maps(analyze_memory(schedule_c(g)), 7)


class TestFigure5DTS:
    def test_dcg_is_acyclic(self, example):
        g, _, _ = example
        assert build_dcg(g).is_acyclic()

    def test_slice_order_matches_paper(self, example):
        """Unique topological slice order d1,d3,d4,d5,d7,d8,d2."""
        g, _, _ = example
        dcg = build_dcg(g)
        slices = tuple(objs[0] for objs in dcg.comp_objects)
        assert slices == DCG_SLICE_ORDER

    def test_dts_min_mem_is_7(self, example):
        g, pl, asg = example
        sched = dts_order(g, pl, asg)
        assert analyze_memory(sched).min_mem == 7

    def test_theorem2_bound(self, example):
        """DTS MIN_MEM respects the Theorem 2 bound (perm + h)."""
        g, pl, asg = example
        bound = dts_space_bound(g, pl, asg)
        sched = dts_order(g, pl, asg)
        assert analyze_memory(sched).min_mem <= bound
        # Acyclic DCG with unit objects: h = 1 (Corollary 1).
        assert bound == 7

    def test_heuristic_progression(self, example):
        """Our own RCP/MPO/DTS orderings never use more memory than the
        paper's figures: RCP >= MPO >= DTS in MIN_MEM."""
        g, pl, asg = example
        mm = {
            fn.__name__: analyze_memory(fn(g, pl, asg)).min_mem
            for fn in (rcp_order, mpo_order, dts_order)
        }
        assert mm["rcp_order"] >= mm["mpo_order"] >= mm["dts_order"] == 7


class TestSimulatedExecution:
    @pytest.mark.parametrize("cap,expected_extra_maps", [(9, 0.0), (8, 0.5)])
    def test_unit_machine_execution(self, example, cap, expected_extra_maps):
        g, _, _ = example
        sc = schedule_c(g)
        res = simulate(sc, spec=UNIT_MACHINE, capacity=cap)
        assert res.peak_memory <= cap
        assert res.avg_maps == 1.0 + expected_extra_maps

    def test_memory_management_costs_time(self, example):
        g, _, _ = example
        sc = schedule_c(g)
        base = simulate(sc, spec=UNIT_MACHINE, memory_managed=False)
        tight = simulate(sc, spec=UNIT_MACHINE, capacity=8)
        assert tight.parallel_time >= base.parallel_time

    def test_non_executable_capacity(self, example):
        g, _, _ = example
        with pytest.raises(NonExecutableScheduleError):
            simulate(schedule_c(g), spec=UNIT_MACHINE, capacity=7)

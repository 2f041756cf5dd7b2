"""Unit tests for the static MAP planner (section 3.3)."""

import pytest

from repro.core import (
    analyze_memory,
    cyclic_placement,
    mpo_order,
    owner_compute_assignment,
    plan_maps,
    rcp_order,
    unconstrained_plan,
)
from repro.errors import NonExecutableScheduleError
from repro.graph.generators import random_trace
from repro.graph.paper_example import paper_example_graph, schedule_b, schedule_c


class TestPlanner:
    def test_first_map_at_beginning(self):
        g = paper_example_graph()
        plan = plan_maps(analyze_memory(schedule_c(g)), 8)
        for pts, order in zip(plan.points, plan.schedule.orders):
            if order:
                assert pts[0].position == 0

    def test_single_map_when_memory_ample(self):
        g = paper_example_graph()
        plan = plan_maps(analyze_memory(schedule_c(g)), 100)
        assert plan.maps_per_proc == [1, 1]
        assert plan.avg_maps == 1.0

    def test_unconstrained_plan(self):
        g = paper_example_graph()
        plan = unconstrained_plan(analyze_memory(schedule_c(g)))
        assert plan.avg_maps == 1.0

    def test_maps_increase_as_memory_shrinks(self):
        g = paper_example_graph()
        sc = schedule_c(g)
        prof = analyze_memory(sc)
        counts = [
            plan_maps(prof, cap).avg_maps
            for cap in range(prof.min_mem, prof.tot + 1)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_non_executable_below_min_mem(self):
        g = paper_example_graph()
        sc = schedule_c(g)
        prof = analyze_memory(sc)
        with pytest.raises(NonExecutableScheduleError):
            plan_maps(prof, prof.min_mem - 1)

    def test_executable_at_exactly_min_mem(self):
        """The planner and Definition 6 agree at the boundary."""
        g = paper_example_graph()
        sc = schedule_c(g)
        prof = analyze_memory(sc)
        plan = plan_maps(prof, prof.min_mem)
        assert plan.avg_maps >= 1.0

    def test_allocs_cover_all_volatiles_once(self):
        g = paper_example_graph()
        sc = schedule_c(g)
        prof = analyze_memory(sc)
        plan = plan_maps(prof, prof.min_mem)
        for q, pts in enumerate(plan.points):
            allocs = [m for mp in pts for m in mp.allocs]
            assert sorted(allocs) == sorted(prof.procs[q].span)
            assert len(set(allocs)) == len(allocs)  # allocated once

    def test_frees_subset_of_allocs(self):
        g = paper_example_graph()
        sc = schedule_b(g)
        prof = analyze_memory(sc)
        plan = plan_maps(prof, prof.min_mem)
        for pts in plan.points:
            allocated = set()
            for mp in pts:
                for m in mp.frees:
                    assert m in allocated
                    allocated.discard(m)
                allocated.update(mp.allocs)

    def test_notifications_target_owners(self):
        g = paper_example_graph()
        sc = schedule_c(g)
        plan = plan_maps(analyze_memory(sc), 8)
        for pts in plan.points:
            for mp in pts:
                for owner, objs in mp.notifications.items():
                    for m in objs:
                        assert sc.placement[m] == owner
                        assert owner != mp.proc

    def test_points_are_read_only(self):
        """The name view cannot drift from the tables the compiled
        engine runs: a MAP, its lists and its notifications refuse
        edits, and a pickled MAP comes back equal."""
        import dataclasses
        import pickle

        g = paper_example_graph()
        plan = plan_maps(analyze_memory(schedule_c(g)), 8)
        mp = next(mp for pts in plan.points for mp in pts if mp.notifications)
        with pytest.raises(dataclasses.FrozenInstanceError):
            mp.notifications = {}
        with pytest.raises(TypeError):
            mp.notifications[mp.proc] = ()
        with pytest.raises(AttributeError):
            mp.allocs.append("x")
        assert pickle.loads(pickle.dumps(mp)) == mp

    def test_budget_respected_between_maps(self):
        """Walking the plan never exceeds capacity (frees only at MAPs)."""
        for seed in range(6):
            g = random_trace(60, 10, seed=seed)
            pl = cyclic_placement(g, 3)
            asg = owner_compute_assignment(g, pl)
            s = mpo_order(g, pl, asg)
            prof = analyze_memory(s)
            cap = prof.min_mem
            plan = plan_maps(prof, cap)
            for q, pts in enumerate(plan.points):
                used = prof.procs[q].perm_bytes
                sizes = {m: g.object(m).size for m in prof.procs[q].span}
                for mp in pts:
                    used -= sum(sizes[m] for m in mp.frees)
                    used += sum(sizes[m] for m in mp.allocs)
                    assert used <= cap

    def test_stats(self):
        g = paper_example_graph()
        plan = plan_maps(analyze_memory(schedule_c(g)), 8)
        assert plan.total_allocations == 5  # 4 volatiles on P1 + 1 on P0
        assert plan.total_frees >= 2
        assert plan.total_packages >= 2
        assert plan.map_positions(1)[0] == 0


class TestAgreementWithDefinition6:
    """plan_maps succeeds exactly when capacity >= MIN_MEM."""

    @pytest.mark.parametrize("seed", range(5))
    def test_boundary(self, seed):
        g = random_trace(50, 8, seed=seed)
        pl = cyclic_placement(g, 3)
        asg = owner_compute_assignment(g, pl)
        s = rcp_order(g, pl, asg)
        prof = analyze_memory(s)
        plan_maps(prof, prof.min_mem)  # must not raise
        if prof.min_mem > prof.procs[0].perm_bytes:
            with pytest.raises(NonExecutableScheduleError):
                plan_maps(prof, prof.min_mem - 1)

"""Unit and integration tests for the discrete-event simulator."""

from dataclasses import replace

import pytest

from repro.core import (
    analyze_memory,
    cyclic_placement,
    dts_order,
    gantt,
    mpo_order,
    owner_compute_assignment,
    rcp_order,
)
from repro.errors import (
    MachineSpecError,
    NonExecutableScheduleError,
    SimulationError,
)
from repro.graph.generators import chain, random_trace, reduction_tree
from repro.graph.paper_example import paper_example_graph, schedule_b, schedule_c
from repro.machine import CRAY_T3D, MachineSpec, UNIT_MACHINE, simulate
from repro.machine.spec import COST_FIELDS


def setup(g, p, order=mpo_order):
    pl = cyclic_placement(g, p)
    asg = owner_compute_assignment(g, pl)
    return order(g, pl, asg)


class TestSpec:
    def test_comm_model(self):
        cm = CRAY_T3D.comm_model()
        assert cm.latency == pytest.approx(2.7e-6)

    def test_task_weight(self):
        assert CRAY_T3D.task_weight(103e6) == pytest.approx(1.0)

    def test_message_time(self):
        t = CRAY_T3D.message_time(128)
        assert t == pytest.approx(2.7e-6 + 128 / 128e6)

    def test_with_capacity(self):
        s = CRAY_T3D.with_capacity(1000)
        assert s.memory_capacity == 1000 and s.flop_rate == CRAY_T3D.flop_rate

    def test_scaled_overheads(self):
        s = CRAY_T3D.scaled_overheads(2.0)
        assert s.map_overhead == pytest.approx(2 * CRAY_T3D.map_overhead)
        assert s.put_latency == CRAY_T3D.put_latency  # network untouched

    @pytest.mark.parametrize("field, value", [
        *((f, v) for f in COST_FIELDS
          for v in (-0.5, float("nan"), float("inf"))),
        ("flop_rate", 0.0), ("flop_rate", -1.0),
        ("flop_rate", float("nan")), ("flop_rate", float("inf")),
        ("memory_capacity", -1), ("memory_capacity", float("nan")),
        ("memory_capacity", float("inf")), ("memory_capacity", 2.5),
    ])
    def test_bad_parameter_rejected_at_construction(self, field, value):
        with pytest.raises(MachineSpecError, match=f"MachineSpec.{field}"):
            replace(UNIT_MACHINE, **{field: value})


class TestBasicExecution:
    def test_serial_chain_time(self):
        from repro.core import serial_schedule

        g = chain(5)
        res = simulate(serial_schedule(g), spec=UNIT_MACHINE, memory_managed=False)
        assert res.parallel_time == pytest.approx(5.0)

    def test_matches_gantt_in_baseline_mode(self):
        """Without memory management the simulator reproduces the
        macro-dataflow prediction on the unit machine."""
        for seed in range(4):
            g = random_trace(60, 12, seed=seed)
            s = setup(g, 3)
            predicted = gantt(s).makespan
            res = simulate(s, spec=UNIT_MACHINE, memory_managed=False)
            assert res.task_finish_time == pytest.approx(predicted)

    def test_all_tasks_complete(self):
        g = random_trace(40, 8, seed=1)
        s = setup(g, 2)
        res = simulate(s, spec=UNIT_MACHINE)
        assert res.parallel_time > 0
        assert len(res.stats) == 2

    def test_commuting_groups_execute(self):
        g = reduction_tree(6)
        s = setup(g, 2)
        res = simulate(s, spec=UNIT_MACHINE)
        assert res.parallel_time > 0

    def test_zero_task_processor(self):
        g = chain(3)
        pl = cyclic_placement(g, 4)
        asg = owner_compute_assignment(g, pl)
        s = rcp_order(g, pl, asg)
        res = simulate(s, spec=UNIT_MACHINE)
        assert res.parallel_time > 0


class TestMemoryManagement:
    def test_peak_respects_capacity(self):
        g = paper_example_graph()
        sc = schedule_c(g)
        for cap in (8, 9, 12):
            res = simulate(sc, spec=UNIT_MACHINE, capacity=cap)
            assert res.peak_memory <= cap

    def test_non_executable_raises(self):
        g = paper_example_graph()
        with pytest.raises(NonExecutableScheduleError):
            simulate(schedule_b(g), spec=UNIT_MACHINE, capacity=8)

    def test_baseline_needs_tot(self):
        g = paper_example_graph()
        sc = schedule_c(g)
        prof = analyze_memory(sc)
        with pytest.raises(SimulationError):
            simulate(sc, spec=UNIT_MACHINE, capacity=prof.tot - 1, memory_managed=False)

    def test_map_counts_match_plan(self):
        g = paper_example_graph()
        sc = schedule_c(g)
        res = simulate(sc, spec=UNIT_MACHINE, capacity=8)
        assert [s.num_maps for s in res.stats] == [
            len(pts) for pts in res.plan.points
        ]

    def test_overhead_grows_as_memory_shrinks(self):
        g = random_trace(120, 20, seed=6)
        s = setup(g, 4)
        prof = analyze_memory(s)
        pts = []
        for cap in (prof.tot, (prof.tot + prof.min_mem) // 2, prof.min_mem):
            pts.append(simulate(s, spec=UNIT_MACHINE, capacity=cap).parallel_time)
        assert pts[0] <= pts[-1]

    def test_suspended_sends_happen_under_pressure(self):
        g = random_trace(100, 15, seed=3)
        s = setup(g, 4)
        prof = analyze_memory(s)
        res = simulate(s, spec=UNIT_MACHINE, capacity=prof.min_mem)
        assert sum(st.suspended_sends for st in res.stats) > 0

    def test_all_heuristics_run_managed(self):
        g = random_trace(80, 12, seed=9)
        pl = cyclic_placement(g, 3)
        asg = owner_compute_assignment(g, pl)
        for fn in (rcp_order, mpo_order, dts_order):
            s = fn(g, pl, asg)
            prof = analyze_memory(s)
            res = simulate(s, spec=UNIT_MACHINE, capacity=prof.min_mem)
            assert res.peak_memory <= prof.min_mem


class TestOverheadAccounting:
    def test_t3d_overheads_slow_execution(self):
        g = random_trace(80, 12, seed=2)
        s = setup(g, 4)
        # weights are ~1s here, so scale the machine to make overheads
        # visible: run with zero overheads vs large overheads.
        fast = MachineSpec(
            put_latency=0.01, byte_time=0.0, send_overhead=0.0,
            map_overhead=0.0, alloc_cost=0.0, free_cost=0.0,
            package_overhead=0.0, address_cost=0.0, ra_cost=0.0,
        )
        slow = MachineSpec(
            put_latency=0.01, byte_time=0.0, send_overhead=0.0,
            map_overhead=1.0, alloc_cost=0.1, free_cost=0.1,
            package_overhead=0.5, address_cost=0.05, ra_cost=0.1,
        )
        prof = analyze_memory(s)
        t_fast = simulate(s, spec=fast, capacity=prof.min_mem).parallel_time
        t_slow = simulate(s, spec=slow, capacity=prof.min_mem).parallel_time
        assert t_slow > t_fast

    def test_message_counters(self):
        g = paper_example_graph()
        sc = schedule_c(g)
        res = simulate(sc, spec=UNIT_MACHINE, capacity=9)
        # 5 volatile (obj, dest) pairs exist: d1,d3,d5,d7 -> P1; d8 -> P0.
        assert res.total_data_msgs == 5
        assert sum(s.packages_sent for s in res.stats) >= 2

    def test_utilization_bounds(self):
        g = random_trace(60, 10, seed=4)
        s = setup(g, 3)
        res = simulate(s, spec=UNIT_MACHINE)
        assert 0 < res.utilization <= 1.0


class TestRepeatability:
    def test_same_result_twice(self):
        """Plans are reusable; repeated runs give identical times."""
        g = paper_example_graph()
        sc = schedule_c(g)
        r1 = simulate(sc, spec=UNIT_MACHINE, capacity=8)
        r2 = simulate(sc, spec=UNIT_MACHINE, capacity=8)
        assert r1.parallel_time == r2.parallel_time
        assert r1.avg_maps == r2.avg_maps

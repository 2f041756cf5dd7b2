"""Tests for the cell-based N-body application."""

import numpy as np
import pytest

from repro.core import (
    analyze_memory,
    dts_order,
    mpo_order,
    rcp_order,
)
from repro.machine import UNIT_MACHINE, simulate
from repro.nbody import build_nbody, cell_name, force_name
from repro.rapid.executor import execute_schedule, execute_serial

ORDERINGS = (rcp_order, mpo_order, dts_order)


@pytest.fixture(scope="module")
def prob():
    return build_nbody(k=3, steps=2, seed=7)


class TestStructure:
    def test_task_kinds(self, prob):
        names = set(prob.graph.task_names)
        assert "ZERO(0,0)@0" in names
        assert "MOVE(2,2)@1" in names
        assert any(t.startswith("FORCE") for t in names)

    def test_mixed_granularity(self, prob):
        weights = {t.weight for t in prob.graph.tasks() if t.name.startswith("FORCE")}
        assert len(weights) > 1

    def test_force_accumulations_commute(self, prob):
        groups = prob.graph.commute_groups()
        assert any(len(v) > 1 for v in groups.values())

    def test_steps_chain(self, prob):
        """Step 1's force tasks depend on step 0's moves."""
        g = prob.graph
        assert g.has_edge("MOVE(1,1)@0", "FORCE(1,1|1,1)@1")

    def test_neighbours_clipped(self, prob):
        corners = list(prob.neighbours(0, 0))
        assert len(corners) == 4
        middle = list(prob.neighbours(1, 1))
        assert len(middle) == 9

    def test_placement_covers_objects(self, prob):
        pl = prob.placement(4)
        for c in prob.cells():
            assert cell_name(*c) in pl and force_name(*c) in pl
            assert pl[cell_name(*c)] == pl[force_name(*c)]


class TestNumerics:
    def test_serial_matches_reference(self, prob):
        store = prob.initial_store()
        execute_serial(prob.graph, store)
        got = prob.gather_positions(store)
        assert np.allclose(got, prob.reference_trajectory(), atol=1e-12)

    @pytest.mark.parametrize("order_fn", ORDERINGS)
    def test_schedules_preserve_trajectory(self, prob, order_fn):
        pl = prob.placement(3)
        asg = prob.assignment(pl)
        s = order_fn(prob.graph, pl, asg)
        store = prob.initial_store()
        execute_schedule(s, store)
        got = prob.gather_positions(store)
        assert np.allclose(got, prob.reference_trajectory(), atol=1e-10)

    def test_deterministic_build(self):
        p1 = build_nbody(k=3, steps=1, seed=3)
        p2 = build_nbody(k=3, steps=1, seed=3)
        assert (p1.counts == p2.counts).all()
        assert p1.graph.num_edges == p2.graph.num_edges


class TestExecution:
    @pytest.mark.parametrize("order_fn", ORDERINGS)
    def test_simulated_at_min_mem(self, prob, order_fn):
        pl = prob.placement(4)
        asg = prob.assignment(pl)
        s = order_fn(prob.graph, pl, asg)
        pr = analyze_memory(s)
        res = simulate(s, spec=UNIT_MACHINE, capacity=pr.min_mem)
        assert res.peak_memory <= pr.min_mem

    def test_volatile_neighbours_exist(self, prob):
        """With multiple processors, some neighbour cells are volatile —
        the force tasks genuinely communicate."""
        pl = prob.placement(4)
        asg = prob.assignment(pl)
        s = rcp_order(prob.graph, pl, asg)
        pr = analyze_memory(s)
        assert any(p.vola_bytes > 0 for p in pr.procs)

    def test_multi_version_traffic(self, prob):
        """Cells cross processors once per step (multiple versions of the
        same volatile object) — the scenario that exercised the sync-edge
        semantics of the simulator."""
        pl = prob.placement(4)
        asg = prob.assignment(pl)
        s = rcp_order(prob.graph, pl, asg)
        pr = analyze_memory(s)
        res = simulate(s, spec=UNIT_MACHINE, capacity=pr.min_mem)
        # more data messages than volatile objects => versioned re-sends
        n_vola = sum(len(p.span) for p in pr.procs)
        assert res.total_data_msgs > n_vola

"""Integration tests: block Cholesky / LU task graphs and numerics."""

import pytest

from repro.core import (
    analyze_memory,
    dts_order,
    mpo_order,
    rcp_order,
)
from repro.core.dcg import build_dcg
from repro.core.dts import dts_space_bound
from repro.core.placement import validate_owner_compute
from repro.graph.builder import is_source_task
from repro.machine import UNIT_MACHINE, simulate
from repro.rapid.executor import execute_schedule, execute_serial
from repro.sparse.blocks import BlockPartition
from repro.sparse.cholesky import build_cholesky
from repro.sparse.lu import build_lu
from repro.sparse.matrices import (
    convection_diffusion_2d,
    goodwin_like,
    perturbed_grid_spd,
)

ORDERINGS = (rcp_order, mpo_order, dts_order)


@pytest.fixture(scope="module")
def chol():
    return build_cholesky(perturbed_grid_spd(9, seed=5), block_size=6)


@pytest.fixture(scope="module")
def lu():
    return build_lu(convection_diffusion_2d(8, seed=4), block_size=6)


class TestBlockPartition:
    def test_basic(self):
        p = BlockPartition(10, 4)
        assert p.num_blocks == 3
        assert p.bounds(2) == (8, 10)
        assert p.width(2) == 2
        assert p.block_of(9) == 2

    def test_bad_args(self):
        with pytest.raises(ValueError):
            BlockPartition(10, 0)


class TestCholeskyGraph:
    def test_task_kinds(self, chol):
        names = set(chol.graph.task_names)
        n = chol.num_block_cols
        assert f"POTRF({n-1})" in names
        assert any(t.startswith("TRSM") for t in names)
        assert any(t.startswith("GEMM") for t in names)

    def test_sources_materialised(self, chol):
        assert any(is_source_task(t) for t in chol.graph.task_names)

    def test_serial_numeric_correct(self, chol):
        store = chol.initial_store()
        execute_serial(chol.graph, store)
        assert chol.factor_error(store) < 1e-10

    @pytest.mark.parametrize("order_fn", ORDERINGS)
    @pytest.mark.parametrize("p", [2, 4])
    def test_every_schedule_preserves_numerics(self, chol, order_fn, p):
        pl = chol.placement(p)
        asg = chol.assignment(pl)
        validate_owner_compute(chol.graph, pl, asg)
        s = order_fn(chol.graph, pl, asg)
        store = chol.initial_store()
        execute_schedule(s, store)
        assert chol.factor_error(store) < 1e-10

    def test_commuting_updates_present(self, chol):
        groups = chol.graph.commute_groups()
        assert any(len(v) > 1 for v in groups.values())

    def test_memory_hierarchy(self, chol):
        """MPO and DTS use no more memory than RCP (Figure 7 trend)."""
        pl = chol.placement(4)
        asg = chol.assignment(pl)
        mm = {f.__name__: analyze_memory(f(chol.graph, pl, asg)).min_mem for f in ORDERINGS}
        assert mm["mpo_order"] <= mm["rcp_order"]
        assert mm["dts_order"] <= dts_space_bound(chol.graph, pl, asg)

    def test_block_cyclic_grid(self, chol):
        pr, pc = chol.processor_grid(6)
        assert pr * pc == 6
        pl = chol.placement(6)
        # block (i, j) owner formula
        for (i, j) in list(chol.nonzero_blocks)[:10]:
            assert pl[f"A[{i},{j}]"] == (i % pr) * pc + (j % pc)

    def test_simulated_execution(self, chol):
        pl = chol.placement(4)
        asg = chol.assignment(pl)
        s = mpo_order(chol.graph, pl, asg)
        prof = analyze_memory(s)
        res = simulate(s, spec=UNIT_MACHINE, capacity=prof.min_mem)
        assert res.peak_memory <= prof.min_mem


class TestLUGraph:
    def test_task_kinds(self, lu):
        names = set(lu.graph.task_names)
        assert f"Factor({lu.num_panels-1})" in names
        assert any(t.startswith("Update") for t in names)

    def test_serial_numeric_correct(self, lu):
        store = lu.initial_store()
        execute_serial(lu.graph, store)
        assert lu.factor_error(store) < 1e-10

    def test_pivoting_actually_happens(self, lu):
        store = lu.initial_store()
        execute_serial(lu.graph, store)
        swaps = sum(
            1
            for k in range(lu.num_panels)
            for (gc, r) in store[f"P[{k}]"]["piv"]
            if r != gc
        )
        assert swaps > 0

    @pytest.mark.parametrize("order_fn", ORDERINGS)
    @pytest.mark.parametrize("p", [2, 4])
    def test_every_schedule_preserves_numerics(self, lu, order_fn, p):
        pl = lu.placement(p)
        asg = lu.assignment(pl)
        s = order_fn(lu.graph, pl, asg)
        store = lu.initial_store()
        execute_schedule(s, store)
        assert lu.factor_error(store) < 1e-10

    def test_dcg_acyclic_corollary2(self, lu):
        """Corollary 2: 1-D column-block LU graphs have acyclic DCGs."""
        assert build_dcg(lu.graph).is_acyclic()

    def test_dts_bound_is_one_panel(self, lu):
        """Corollary 2: DTS runs in perm + w space; h = largest panel."""
        pl = lu.placement(4)
        asg = lu.assignment(pl)
        bound = dts_space_bound(lu.graph, pl, asg)
        biggest_panel = max(
            lu.graph.object(f"P[{k}]").size for k in range(lu.num_panels)
        )
        perm_bytes = max(
            analyze_memory(dts_order(lu.graph, pl, asg)).procs[q].perm_bytes
            for q in range(4)
        )
        assert bound <= perm_bytes + biggest_panel

    def test_cyclic_panel_placement(self, lu):
        pl = lu.placement(3)
        for k in range(lu.num_panels):
            assert pl[f"P[{k}]"] == k % 3

    def test_rcp_memory_not_scalable_for_lu(self, lu):
        """Figure 7(b): RCP keeps nearly all panels alive; MPO/DTS don't."""
        pl = lu.placement(4)
        asg = lu.assignment(pl)
        m_rcp = analyze_memory(rcp_order(lu.graph, pl, asg)).min_mem
        m_dts = analyze_memory(dts_order(lu.graph, pl, asg)).min_mem
        assert m_dts <= m_rcp

    def test_goodwin_like_pipeline(self):
        prob = build_lu(goodwin_like(scale=0.012), block_size=6)
        store = prob.initial_store()
        execute_serial(prob.graph, store)
        assert prob.factor_error(store) < 1e-10

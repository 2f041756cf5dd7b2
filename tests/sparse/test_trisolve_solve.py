"""Tests for the triangular-solve application and end-to-end solvers."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.core import (
    analyze_memory,
    dts_order,
    mpo_order,
    rcp_order,
)
from repro.machine import UNIT_MACHINE, simulate
from repro.rapid.executor import execute_schedule, execute_serial
from repro.sparse.cholesky import build_cholesky
from repro.sparse.lu import build_lu
from repro.sparse.matrices import goodwin_like, perturbed_grid_spd
from repro.sparse.solve import cholesky_solve, lu_solve
from repro.sparse.trisolve import build_trisolve

ORDERINGS = (rcp_order, mpo_order, dts_order)


@pytest.fixture(scope="module")
def chol():
    return build_cholesky(perturbed_grid_spd(8, seed=1), block_size=5)


@pytest.fixture(scope="module")
def factor_store(chol):
    store = chol.initial_store()
    execute_serial(chol.graph, store)
    return store


@pytest.fixture(scope="module")
def rhs(chol):
    return np.random.default_rng(3).normal(size=chol.n)


class TestTrisolveGraphs:
    def test_forward_task_kinds(self, chol):
        tp = build_trisolve(chol, lower=True)
        names = set(tp.graph.task_names)
        assert any(t.startswith("SOLVE") for t in names)
        assert any(t.startswith("XUPD") for t in names)

    def test_updates_commute(self, chol):
        tp = build_trisolve(chol, lower=True)
        assert any(len(v) > 1 for v in tp.graph.commute_groups().values())

    def test_forward_serial_numeric(self, chol, factor_store, rhs):
        tp = build_trisolve(chol, lower=True)
        store = tp.initial_store(factor_store, rhs)
        execute_serial(tp.graph, store)
        l = chol.assemble_factor(factor_store)
        ref = sla.solve_triangular(l, rhs, lower=True)
        assert np.allclose(tp.gather(store), ref)

    def test_backward_serial_numeric(self, chol, factor_store, rhs):
        tp = build_trisolve(chol, lower=False)
        store = tp.initial_store(factor_store, rhs)
        execute_serial(tp.graph, store)
        l = chol.assemble_factor(factor_store)
        ref = sla.solve_triangular(l, rhs, lower=True, trans=1)
        assert np.allclose(tp.gather(store), ref)

    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("order_fn", ORDERINGS)
    def test_schedules_preserve_numerics(self, chol, factor_store, rhs, lower, order_fn):
        tp = build_trisolve(chol, lower=lower)
        pl = tp.placement(3)
        asg = tp.assignment(pl)
        s = order_fn(tp.graph, pl, asg)
        store = tp.initial_store(factor_store, rhs)
        execute_schedule(s, store)
        l = chol.assemble_factor(factor_store)
        ref = sla.solve_triangular(l, rhs, lower=True, trans=0 if lower else 1)
        assert np.allclose(tp.gather(store), ref)

    @pytest.mark.parametrize("lower", [True, False])
    def test_simulated_under_min_mem(self, chol, lower):
        tp = build_trisolve(chol, lower=lower)
        pl = tp.placement(4)
        asg = tp.assignment(pl)
        s = mpo_order(tp.graph, pl, asg)
        prof = analyze_memory(s)
        res = simulate(s, spec=UNIT_MACHINE, capacity=prof.min_mem)
        assert res.peak_memory <= prof.min_mem

    def test_segments_owned_with_diagonal(self, chol):
        tp = build_trisolve(chol, lower=True)
        pl = tp.placement(4)
        pr, pc = chol.processor_grid(4)
        for k in range(tp.num_blocks):
            assert pl[f"y[{k}]"] == (k % pr) * pc + (k % pc)

    def test_memory_heuristics_help(self, chol):
        tp = build_trisolve(chol, lower=True)
        pl = tp.placement(4)
        asg = tp.assignment(pl)
        m_rcp = analyze_memory(rcp_order(tp.graph, pl, asg)).min_mem
        m_mpo = analyze_memory(mpo_order(tp.graph, pl, asg)).min_mem
        assert m_mpo <= m_rcp


class TestSolvers:
    def test_cholesky_solve_matches_dense(self, chol, rhs):
        x = cholesky_solve(chol, rhs)
        ref = np.linalg.solve(chol.a.toarray(), rhs)
        assert np.allclose(x, ref)

    def test_cholesky_solve_shape_check(self, chol):
        with pytest.raises(ValueError):
            cholesky_solve(chol, np.zeros(3))

    def test_lu_solve_matches_dense(self):
        prob = build_lu(goodwin_like(scale=0.012), block_size=6)
        rng = np.random.default_rng(5)
        b = rng.normal(size=prob.n)
        x = lu_solve(prob, b)
        ref = np.linalg.solve(prob.a.toarray(), b)
        assert np.allclose(x, ref, atol=1e-8)

    def test_lu_solve_shape_check(self):
        prob = build_lu(goodwin_like(scale=0.012), block_size=6)
        with pytest.raises(ValueError):
            lu_solve(prob, np.zeros(5))

"""Tests for the conjugate-gradient application."""

import numpy as np
import pytest

from repro.apps.cg import build_cg, cg_solve
from repro.core import analyze_memory, dts_order, mpo_order, rcp_order
from repro.core.placement import validate_owner_compute
from repro.graph.repeat import repeat_graph, repeat_schedule
from repro.machine import UNIT_MACHINE, simulate
from repro.sparse.matrices import grid_laplacian_2d, perturbed_grid_spd


@pytest.fixture(scope="module")
def prob():
    return build_cg(grid_laplacian_2d(8), block_size=16)


@pytest.fixture(scope="module")
def rhs(prob):
    return np.random.default_rng(1).normal(size=prob.n)


class TestGraph:
    def test_structure(self, prob):
        names = set(prob.graph.task_names)
        assert "RED_PQ" in names and "BETA" in names
        assert f"SPMV({prob.num_blocks - 1})" in names

    def test_spmv_reads_only_needed_segments(self, prob):
        for i in range(prob.num_blocks):
            t = prob.graph.task(f"SPMV({i})")
            segs = {int(r[2:-1]) for r in t.reads if r.startswith("p[")}
            assert segs == set(prob.needed[i])

    def test_owner_compute_consistent(self, prob):
        pl = prob.placement(3)
        asg = prob.assignment(pl)
        validate_owner_compute(prob.graph, pl, asg)

    def test_scalars_on_proc0(self, prob):
        pl = prob.placement(4)
        assert pl["alpha"] == 0 and pl["dot_rr"] == 0


class TestNumerics:
    def test_converges_to_solution(self, prob, rhs):
        res = cg_solve(prob, rhs, tol=1e-11)
        assert res.converged
        ref = np.linalg.solve(prob.a.toarray(), rhs)
        assert np.allclose(res.x, ref, atol=1e-7)

    def test_residuals_decrease(self, prob, rhs):
        res = cg_solve(prob, rhs, tol=1e-11)
        assert res.residuals[-1] < res.residuals[0]

    def test_nonconvergence_reported(self, prob, rhs):
        res = cg_solve(prob, rhs, tol=1e-14, max_iter=2)
        assert not res.converged

    @pytest.mark.parametrize("order_fn", [rcp_order, mpo_order, dts_order])
    def test_any_schedule_converges(self, prob, rhs, order_fn):
        pl = prob.placement(3)
        s = order_fn(prob.graph, pl, prob.assignment(pl))
        res = cg_solve(prob, rhs, schedule=s)
        assert res.converged
        ref = np.linalg.solve(prob.a.toarray(), rhs)
        assert np.allclose(res.x, ref, atol=1e-6)

    def test_bad_rhs_shape(self, prob):
        with pytest.raises(ValueError):
            prob.initial_store(np.zeros(3))

    def test_perturbed_matrix(self):
        a = perturbed_grid_spd(7, seed=4)
        p = build_cg(a, block_size=12)
        b = np.random.default_rng(2).normal(size=p.n)
        res = cg_solve(p, b, tol=1e-10, max_iter=300)
        assert res.converged


class TestExecution:
    def test_simulated_iteration(self, prob):
        pl = prob.placement(4)
        s = mpo_order(prob.graph, pl, prob.assignment(pl))
        pr = analyze_memory(s)
        res = simulate(s, spec=UNIT_MACHINE, capacity=pr.min_mem)
        assert res.peak_memory <= pr.min_mem

    def test_unrolled_iterations_pipeline(self, prob):
        pl = prob.placement(4)
        s1 = mpo_order(prob.graph, pl, prob.assignment(pl))
        s3 = repeat_schedule(s1, 3)
        pr = analyze_memory(s3)
        res = simulate(s3, spec=UNIT_MACHINE, capacity=pr.min_mem)
        assert res.parallel_time > 0
        # memory does not grow with unrolling (recycled volatiles)
        assert pr.min_mem == analyze_memory(repeat_schedule(s1, 2)).min_mem

    def test_unrolled_numerics_match_loop(self, prob, rhs):
        """Executing the 3x-unrolled graph equals three loop iterations."""
        from repro.rapid.executor import execute_serial

        g3 = repeat_graph(prob.graph, 3)
        store = prob.initial_store(rhs)
        execute_serial(g3, store)
        loop_store = prob.initial_store(rhs)
        for _ in range(3):
            execute_serial(prob.graph, loop_store)
        assert np.allclose(prob.gather(store), prob.gather(loop_store))

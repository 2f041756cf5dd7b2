"""Tests for the classic task-graph families."""

import pytest

from repro.core import (
    analyze_memory,
    gantt,
)
from repro.core.dts import dts_space_bound
from repro.graph.analysis import depth, is_topological
from repro.graph.classic import (
    cholesky_column_graph,
    dense_lu_graph,
    fft_graph,
    stencil_1d,
)
from repro.graph.builder import is_source_task
from repro.machine import UNIT_MACHINE, simulate
from repro.rapid import parallelize


class TestDenseLU:
    def test_task_count(self):
        g = dense_lu_graph(5)
        real = [t for t in g.task_names if not is_source_task(t)]
        assert len(real) == 5 + 4 + 3 + 2 + 1  # F(k) + U(k, j)

    def test_wavefront_depth(self):
        g = dense_lu_graph(5)
        # critical chain F(0), U(0,1), F(1), U(1,2), ...
        assert depth(g) >= 2 * 5 - 1

    def test_schedulable(self):
        g = dense_lu_graph(6)
        s = parallelize(g, 3, heuristic="mpo")
        assert gantt(s).makespan > 0


class TestCholeskyColumns:
    def test_updates_commute(self):
        g = cholesky_column_graph(5)
        groups = g.commute_groups()
        assert len(groups["cmod:4"]) == 4

    def test_memory_hierarchy_on_wavefront(self):
        g = cholesky_column_graph(8)
        s_rcp = parallelize(g, 4, heuristic="rcp")
        s_dts = parallelize(g, 4, heuristic="dts")
        m_rcp = analyze_memory(s_rcp).min_mem
        m_dts = analyze_memory(s_dts).min_mem
        assert m_dts <= m_rcp
        bound = dts_space_bound(g, s_dts.placement, s_dts.assignment)
        assert m_dts <= bound


class TestFFT:
    def test_structure(self):
        g = fft_graph(3)
        real = [t for t in g.task_names if not is_source_task(t)]
        assert len(real) == 3 * 4  # m stages x n/2 butterflies
        assert depth(g) == 3 + 1  # sources + stages

    def test_bad_m(self):
        with pytest.raises(ValueError):
            fft_graph(0)

    def test_dsc_clustering_handles_pair_writes(self):
        """Butterflies write two objects; DSC-derived placement keeps
        owner-compute consistent."""
        g = fft_graph(3)
        s = parallelize(g, 2, clustering="dsc")
        prof = analyze_memory(s)
        res = simulate(s, spec=UNIT_MACHINE, capacity=prof.min_mem)
        assert res.parallel_time > 0


class TestStencil:
    def test_double_buffered_shape(self):
        g = stencil_1d(6, 3)
        real = [t for t in g.task_names if not is_source_task(t)]
        assert len(real) == 18
        assert is_topological(g, g.topological_order())

    def test_in_place_variant(self):
        g = stencil_1d(5, 2, in_place=True)
        s = parallelize(g, 2, heuristic="mpo")
        assert gantt(s).makespan > 0

    def test_wavefront_parallelism(self):
        """The double-buffered stencil parallelises well across procs."""
        g = stencil_1d(12, 4, weight=2.0)
        s = parallelize(g, 4, heuristic="rcp")
        serial = g.total_work()
        assert gantt(s).makespan < serial

    def test_all_heuristics_simulate(self):
        g = stencil_1d(8, 3)
        for h in ("rcp", "mpo", "dts"):
            s = parallelize(g, 3, heuristic=h)
            prof = analyze_memory(s)
            res = simulate(s, spec=UNIT_MACHINE, capacity=prof.min_mem)
            assert res.peak_memory <= prof.min_mem

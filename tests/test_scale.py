"""Scale stress tests (marked slow): tens of thousands of tasks through
the full pipeline, asserting the invariants still hold and the
implementation stays within sane wall-time."""

import time

import pytest

from repro.core import (
    analyze_memory,
    dts_order,
    mpo_order,
    plan_maps,
    rcp_order,
)
from repro.core.dts import dts_space_bound
from repro.machine import UNIT_MACHINE, simulate
from repro.sparse.cholesky import build_cholesky
from repro.sparse.matrices import bcsstk15_like


@pytest.mark.slow
class TestScale:
    def test_wide_synthetic(self, seeded_case):
        t0 = time.time()
        # 4000 tasks, wide
        case = seeded_case(
            seed=5, procs=16, family="layered", layers=50, width=80,
            density=0.08,
        )
        g, pl, asg = case.graph, case.placement, case.assignment
        assert g.num_tasks == 4000
        for fn in (rcp_order, mpo_order, dts_order):
            s = fn(g, pl, asg)
            prof = analyze_memory(s)
            plan_maps(prof, prof.min_mem)
            res = simulate(s, spec=UNIT_MACHINE, capacity=prof.min_mem)
            assert res.peak_memory <= prof.min_mem
        assert time.time() - t0 < 120

    def test_large_cholesky(self):
        t0 = time.time()
        prob = build_cholesky(
            bcsstk15_like(scale=0.3), block_size=16, with_kernels=False
        )
        g = prob.graph
        assert g.num_tasks > 10_000
        pl = prob.placement(32)
        asg = prob.assignment(pl)
        s = mpo_order(g, pl, asg)
        prof = analyze_memory(s)
        assert analyze_memory(dts_order(g, pl, asg)).min_mem <= dts_space_bound(
            g, pl, asg
        )
        res = simulate(
            s, spec=UNIT_MACHINE, capacity=prof.min_mem
        )
        assert res.peak_memory <= prof.min_mem
        assert time.time() - t0 < 180

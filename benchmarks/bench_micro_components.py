"""Micro-benchmarks of the library's building blocks.

These measure real throughput (pytest-benchmark statistics are
meaningful here, unlike the single-shot table regenerations): ordering
heuristics, liveness analysis, MAP planning, the discrete-event
simulator and symbolic factorization.
"""

import pytest

from repro.core import (
    analyze_memory,
    cyclic_placement,
    dts_order,
    mpo_order,
    owner_compute_assignment,
    plan_maps,
    rcp_order,
)
from repro.graph.generators import layered_random
from repro.machine import UNIT_MACHINE, CompiledSchedule, Simulator
from repro.sparse.matrices import perturbed_grid_spd
from repro.sparse.symbolic import symbolic_cholesky


@pytest.fixture(scope="module")
def workload():
    g = layered_random(25, 40, density=0.15, seed=7)  # 1000 tasks
    pl = cyclic_placement(g, 8)
    asg = owner_compute_assignment(g, pl)
    return g, pl, asg


@pytest.mark.parametrize("order_fn", [rcp_order, mpo_order, dts_order])
def test_ordering_throughput(benchmark, workload, order_fn):
    g, pl, asg = workload
    s = benchmark(lambda: order_fn(g, pl, asg))
    assert s.graph.num_tasks == 1000


def test_liveness_throughput(benchmark, workload):
    g, pl, asg = workload
    sched = mpo_order(g, pl, asg)
    prof = benchmark(lambda: analyze_memory(sched))
    assert prof.min_mem > 0


def test_map_planning_throughput(benchmark, workload):
    g, pl, asg = workload
    sched = mpo_order(g, pl, asg)
    prof = analyze_memory(sched)
    plan = benchmark(lambda: plan_maps(prof, prof.min_mem))
    assert plan.avg_maps >= 1.0


def test_simulator_throughput(benchmark, workload):
    g, pl, asg = workload
    sched = mpo_order(g, pl, asg)
    prof = analyze_memory(sched)

    def run():
        return Simulator(
            spec=UNIT_MACHINE, capacity=prof.min_mem,
            compiled=CompiledSchedule(sched, profile=prof),
        ).run()

    res = benchmark(run)
    assert res.parallel_time > 0


def test_symbolic_cholesky_throughput(benchmark):
    a = perturbed_grid_spd(22, seed=1)  # n = 484
    cols, _ = benchmark(lambda: symbolic_cholesky(a))
    assert len(cols) == 484

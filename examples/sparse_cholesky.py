#!/usr/bin/env python3
"""Sparse Cholesky factorization under memory constraints.

The paper's first application: 2-D block sparse Cholesky on a
structural-engineering-like SPD matrix.  The script

1. builds the block task graph (POTRF / TRSM / commuting GEMM tasks),
2. schedules it with RCP, MPO and DTS on a processor grid,
3. verifies numerically that every schedule computes the true factor,
4. executes each schedule on the simulated Cray-T3D under shrinking
   memory capacities, reporting PT, PT increase and #MAPs.

Run:  python examples/sparse_cholesky.py
"""

import numpy as np

from repro.core import analyze_memory, dts_order, mpo_order, rcp_order
from repro.machine.simulator import CompiledSchedule, Simulator
from repro.machine.spec import CRAY_T3D
from repro.rapid.executor import execute_schedule
from repro.sparse.cholesky import build_cholesky
from repro.sparse.matrices import bcsstk15_like

P = 8
ORDERINGS = {"RCP": rcp_order, "MPO": mpo_order, "DTS": dts_order}


def main() -> None:
    a = bcsstk15_like(scale=0.08)
    prob = build_cholesky(a, block_size=10, flop_time=1.0 / CRAY_T3D.flop_rate)
    g = prob.graph
    print(f"matrix n = {prob.n}, factor task graph: {g.num_tasks} tasks, "
          f"{g.num_edges} edges, {g.num_objects} block objects "
          f"(S1 = {g.total_data()} B)")

    placement = prob.placement(P)
    assignment = prob.assignment(placement)

    schedules = {}
    for name, fn in ORDERINGS.items():
        sched = fn(g, placement, assignment)
        prof = analyze_memory(sched)
        schedules[name] = (CompiledSchedule(sched, profile=prof), prof)

        # numeric verification: the schedule's interleaving must compute
        # the exact Cholesky factor
        store = prob.initial_store()
        execute_schedule(sched, store)
        err = prob.factor_error(store)
        assert err < 1e-10
        print(f"\n[{name}] MIN_MEM = {prof.min_mem} B, TOT = {prof.tot} B, "
              f"numeric |LL^T - A| = {err:.1e}")

    # baseline: RCP, all memory, no memory management
    rcp_compiled, rcp_prof = schedules["RCP"]
    base = Simulator(spec=CRAY_T3D, memory_managed=False,
                     compiled=rcp_compiled).run()
    print(f"\nbaseline (RCP, no memory management): PT = {base.parallel_time*1e3:.2f} ms")

    print(f"\n{'heuristic':>9} | {'memory':>7} | {'PT (ms)':>8} | "
          f"{'PT incr':>8} | {'#MAPs':>6}")
    for name, (compiled, prof) in schedules.items():
        for frac in (1.0, 0.75, 0.5, 0.4):
            cap = int(rcp_prof.tot * frac)
            if prof.min_mem > cap:
                print(f"{name:>9} | {int(frac*100):>6}% | {'inf':>8} | "
                      f"{'inf':>8} | {'inf':>6}")
                continue
            res = Simulator(spec=CRAY_T3D, capacity=cap,
                            compiled=compiled).run()
            inc = (res.parallel_time - base.parallel_time) / base.parallel_time
            print(f"{name:>9} | {int(frac*100):>6}% | "
                  f"{res.parallel_time*1e3:>8.2f} | {100*inc:>7.1f}% | "
                  f"{res.avg_maps:>6.2f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Sparse LU with partial pivoting: solving larger problems in fixed memory.

The paper's second application and its section 5.3 demonstration: under a
fixed per-processor memory budget, the active memory management scheme
solves strictly larger problem instances than the original
allocate-everything strategy.

The script builds 1-D column-block LU task graphs for growing
truncations of the BCSSTK33 stand-in, finds the largest instance each
strategy can run, and reports simulated performance (PT, #MAPs, MFLOPS)
of the largest instance — Table 8's experiment.

Run:  python examples/sparse_lu.py
"""

from repro.core import analyze_memory, mpo_order
from repro.machine.simulator import CompiledSchedule, Simulator
from repro.machine.spec import CRAY_T3D
from repro.rapid.executor import execute_schedule
from repro.sparse.lu import build_lu
from repro.sparse.matrices import bcsstk33_like, goodwin_like, truncate

P = 16


def main() -> None:
    # -- numeric sanity on the goodwin stand-in (pivoting happens) ------
    small = build_lu(goodwin_like(scale=0.015), block_size=8)
    pl = small.placement(4)
    sched = mpo_order(small.graph, pl, small.assignment(pl))
    store = small.initial_store()
    execute_schedule(sched, store)
    swaps = sum(
        1
        for k in range(small.num_panels)
        for (gc, r) in store[f"P[{k}]"]["piv"]
        if r != gc
    )
    print(f"goodwin-like n={small.n}: |LU - PA| = {small.factor_error(store):.1e} "
          f"with {swaps} genuine row swaps")

    # -- Table 8-style capacity experiment ------------------------------
    a_full = bcsstk33_like(scale=0.06)
    n_full = a_full.shape[0]
    flop_time = 1.0 / CRAY_T3D.flop_rate

    sizes = sorted({int(n_full * f) for f in (1.0, 0.85, 0.7, 0.55)}, reverse=True)
    stats = {}
    for n in sizes:
        prob = build_lu(truncate(a_full, n), block_size=10,
                        flop_time=flop_time, with_kernels=False)
        pl = prob.placement(P)
        sched = mpo_order(prob.graph, pl, prob.assignment(pl))
        prof = analyze_memory(sched)
        stats[n] = (prob, sched, prof)
        print(f"n={n:5d}: TOT = {prof.tot:9d} B   MIN_MEM = {prof.min_mem:9d} B")

    # capacity between the largest instance's MIN_MEM and TOT
    big_prof = stats[sizes[0]][2]
    capacity = (big_prof.tot + big_prof.min_mem) // 2
    print(f"\nfixed capacity: {capacity} B per processor")

    solvable_old = max((n for n, (_, _, pr) in stats.items() if pr.tot <= capacity),
                       default=None)
    solvable_new = max((n for n, (_, _, pr) in stats.items() if pr.min_mem <= capacity),
                       default=None)
    print(f"original scheme solves up to n = {solvable_old}")
    print(f"new scheme      solves up to n = {solvable_new}")

    if solvable_new:
        prob, sched, prof = stats[solvable_new]
        res = Simulator(spec=CRAY_T3D, capacity=capacity,
                        compiled=CompiledSchedule(sched, profile=prof)).run()
        flops = prob.graph.total_work() * CRAY_T3D.flop_rate
        print(f"\nlargest instance on P={P}: PT = {res.parallel_time*1e3:.2f} ms, "
              f"{res.avg_maps:.2f} MAPs/proc, "
              f"{flops / res.parallel_time / 1e6:.0f} MFLOPS simulated")


if __name__ == "__main__":
    main()

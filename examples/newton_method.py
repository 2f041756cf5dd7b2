#!/usr/bin/env python3
"""Newton's method on the 2-D Bratu problem through RAPID-scheduled LU.

The paper (section 2) lists Newton's method among RAPID's applications:
the Jacobian's sparsity pattern never changes, so the expensive
inspector stage (symbolic factorization, task-graph extraction,
scheduling) runs once, and every Newton step re-executes the same
schedule on fresh numeric values.

Run:  python examples/newton_method.py
"""

import numpy as np

from repro.apps import BratuProblem, newton_solve
from repro.core import analyze_memory, mpo_order
from repro.machine.simulator import CompiledSchedule, Simulator
from repro.machine.spec import CRAY_T3D

P = 8


def main() -> None:
    bratu = BratuProblem(k=12, lam=3.0)
    print(f"Bratu problem: -Δu = λ e^u, {bratu.k}x{bratu.k} grid "
          f"(n = {bratu.n}), λ = {bratu.lam}")

    # inspector: once
    lu = bratu.build_lu(block_size=8, flop_time=1.0 / CRAY_T3D.flop_rate)
    print(f"Jacobian task graph: {lu.graph.num_tasks} tasks, "
          f"{lu.num_panels} panels (structure fixed across iterations)")
    placement = lu.placement(P)
    schedule = mpo_order(lu.graph, placement, lu.assignment(placement),
                         CRAY_T3D.comm_model())
    prof = analyze_memory(schedule)
    print(f"MPO schedule on P={P}: MIN_MEM = {prof.min_mem} B, "
          f"TOT = {prof.tot} B")

    # executor: every Newton step re-runs the same schedule
    res = newton_solve(lu, bratu.f, bratu.jacobian, np.zeros(bratu.n),
                       schedule=schedule)
    print(f"\nNewton iterations ({'converged' if res.converged else 'failed'}):")
    for i, r in enumerate(res.residuals):
        print(f"  step {i}: |F(u)| = {r:.3e}")

    # simulated cost of one step's factorization phase, amortized
    sim = Simulator(spec=CRAY_T3D, capacity=prof.min_mem,
                    compiled=CompiledSchedule(schedule, profile=prof),
                    preknown_addresses=True).run()
    total = res.iterations * sim.parallel_time
    print(f"\nsimulated steady-state factorization: "
          f"{sim.parallel_time*1e3:.3f} ms/step -> "
          f"{total*1e3:.2f} ms over {res.iterations} Newton steps")


if __name__ == "__main__":
    main()

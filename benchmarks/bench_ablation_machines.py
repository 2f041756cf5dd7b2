"""Ablation — machine balance: Cray-T3D vs Meiko CS-2.

The paper implemented RAPID "on Cray-T3D and Meiko CS-2" and reports
T3D numbers.  The CS-2's communication is slower relative to compute
(higher latency, lower bandwidth), so the same schedule is more
latency-bound and the memory-management handshake costs relatively more.
This ablation runs the identical Cholesky schedule on both machine
models.
"""

from repro.experiments.report import render_table
from repro.machine.simulator import Simulator
from repro.machine.spec import CRAY_T3D, MEIKO_CS2


def test_cross_machine(benchmark, ctx, record):
    key, p, frac = "chol15", 16, 0.75
    cs = ctx.compiled(key, p, "rcp")
    prof = cs.profile
    capacity = int(prof.tot * frac)

    def sweep():
        rows = []
        for name, spec in (("Cray-T3D", CRAY_T3D), ("Meiko CS-2", MEIKO_CS2)):
            base = Simulator(spec=spec, memory_managed=False, compiled=cs).run()
            managed = Simulator(spec=spec, capacity=capacity, compiled=cs).run()
            inc = (managed.parallel_time - base.parallel_time) / base.parallel_time
            rows.append((name, base.parallel_time, managed.parallel_time, inc))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record(
        "ablation_machines",
        render_table(
            ["machine", "baseline PT", "managed PT (75%)", "PT increase"],
            [[n, f"{b*1e3:.2f} ms", f"{m*1e3:.2f} ms", f"{100*i:.1f}%"]
             for n, b, m, i in rows],
            title=f"Ablation: machine balance (Cholesky, RCP, P={p})",
        ),
    )
    t3d, cs2 = rows
    # the CS-2 is slower in absolute terms
    assert cs2[1] > t3d[1]
    # both run to completion with positive overhead
    assert t3d[3] >= 0 and cs2[3] >= 0

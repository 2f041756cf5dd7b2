"""Ablation — sensitivity to memory-management overhead parameters.

The paper's absolute PT-increase numbers depend on the T3D runtime's
software costs, which the reproduction models as free parameters
(``MachineSpec``).  This ablation sweeps a scale factor over all
memory-management overheads and reports the PT increase of a fixed
configuration — quantifying exactly the sensitivity the calibration
notes warned is lost in a Python reproduction.
"""

from repro.experiments.report import render_table
from repro.machine.simulator import Simulator


def test_overhead_sensitivity(benchmark, ctx, record):
    key, p, frac = "chol15", 16, 0.75
    cs = ctx.compiled(key, p, "rcp")
    tot = cs.profile.tot
    capacity = int(tot * frac)
    base_pt = ctx.baseline_pt(key, p)

    def sweep():
        rows = []
        for factor in (0.0, 0.5, 1.0, 2.0, 4.0):
            spec = ctx.spec.scaled_overheads(factor)
            res = Simulator(spec=spec, capacity=capacity, compiled=cs).run()
            rows.append((factor, (res.parallel_time - base_pt) / base_pt))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record(
        "ablation_overheads",
        render_table(
            ["overhead scale", "PT increase"],
            [[f"{f:.1f}x", f"{100*v:.1f}%"] for f, v in rows],
            title=f"Ablation: overhead sensitivity (Cholesky, P={p}, {int(frac*100)}%)",
        ),
    )
    incs = [v for _f, v in rows]
    # Monotone in the overhead scale, and nonzero even at 0x (the
    # address-before-data handshake itself costs time).
    assert incs == sorted(incs)
    assert incs[-1] > incs[0]

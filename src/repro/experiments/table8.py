"""Table 8 — solving previously-unsolvable problems (section 5.3).

The paper fixes the per-node memory (64 MB on the T3D) and shows that
the active memory management scheme raises the largest solvable
BCSSTK33 truncation from n=5600 (3.88M nonzeros) to n=6080 (9.49M after
fill; +145% problem size), then reports absolute performance (PT,
average #MAPs, MFLOPS) of sparse LU on 16/32/64 processors.

The reproduction fixes a scaled per-processor capacity, finds the
largest truncation the *original* scheme (no recycling, capacity must
cover TOT) can run and the largest the *new* scheme (capacity must
cover MIN_MEM) can run, then reports the simulated performance of the
larger problem.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.liveness import analyze_memory
from ..machine.simulator import CompiledSchedule, Simulator
from ..machine.spec import CRAY_T3D, MachineSpec
from ..rapid.inspector import order_with
from ..sparse.lu import build_lu
from ..sparse.matrices import bcsstk33_like, truncate
from .report import render_table


@dataclass
class Table8Row:
    procs: int
    parallel_time: float
    avg_maps: float
    mflops: float


@dataclass
class Table8:
    capacity: int
    n_original: int  # largest size solvable without memory management
    n_new: int  # largest size solvable with the new scheme
    nnz_original: int
    nnz_new: int
    rows: list[Table8Row]

    @property
    def size_increase_pct(self) -> float:
        if self.nnz_original <= 0:
            return float("inf")
        return 100.0 * (self.nnz_new - self.nnz_original) / self.nnz_original

    def render(self) -> str:
        head = (
            f"Table 8: sparse LU under a fixed capacity of {self.capacity} B/processor\n"
            f"  original scheme solves n={self.n_original} ({self.nnz_original} stored entries)\n"
            f"  new scheme      solves n={self.n_new} ({self.nnz_new} stored entries, "
            f"+{self.size_increase_pct:.0f}%)"
        )
        rows = [
            [str(r.procs), f"{r.parallel_time:.4f}", f"{r.avg_maps:.2f}", f"{r.mflops:.1f}"]
            for r in self.rows
        ]
        return head + "\n" + render_table(
            ["#proc", "PT(s)", "Ave. #MAPs", "MFLOPS"], rows
        )


def table8(
    spec: MachineSpec = CRAY_T3D,
    scale: float = 0.10,
    block_size: int = 12,
    procs=(16, 32, 64),
    base_procs: int = 16,
    capacity: int | None = None,
) -> Table8:
    """Regenerate Table 8 on the BCSSTK33 stand-in.

    ``capacity`` defaults to a value chosen so the gap between TOT-bound
    and MIN_MEM-bound sizes is visible: halfway between the full
    problem's TOT and MIN_MEM on ``base_procs`` processors.
    """
    a_full = bcsstk33_like(scale=scale)
    n_full = a_full.shape[0]
    flop_time = 1.0 / spec.flop_rate

    # Candidate truncations, largest first.
    sizes = sorted({int(n_full * f) for f in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)}, reverse=True)
    probs = {}

    def problem(n: int):
        if n not in probs:
            probs[n] = build_lu(
                truncate(a_full, n), block_size=block_size,
                flop_time=flop_time, with_kernels=False,
            )
        return probs[n]

    def schedule(n: int, p: int):
        prob = problem(n)
        pl = prob.placement(p)
        return order_with("rcp", prob.graph, pl, prob.assignment(pl), spec.comm_model())

    if capacity is None:
        prof = analyze_memory(schedule(n_full, base_procs))
        capacity = (prof.tot + prof.min_mem) // 2

    n_orig = n_new = 0
    nnz_orig = nnz_new = 0
    for n in sizes:
        prof = analyze_memory(schedule(n, base_procs))
        nnz = sum(problem(n).panel_nnz)
        if not n_new and prof.min_mem <= capacity:
            n_new, nnz_new = n, nnz
        if not n_orig and prof.tot <= capacity:
            n_orig, nnz_orig = n, nnz
        if n_orig:
            break

    rows = []
    big = problem(n_new)
    total_flops = big.graph.total_work() * spec.flop_rate
    for p in procs:
        sched = schedule(n_new, p)
        prof = analyze_memory(sched)
        if prof.min_mem > capacity:
            rows.append(Table8Row(p, float("inf"), float("inf"), 0.0))
            continue
        res = Simulator(spec=spec, capacity=capacity,
                        compiled=CompiledSchedule(sched, profile=prof)).run()
        rows.append(
            Table8Row(
                procs=p,
                parallel_time=res.parallel_time,
                avg_maps=res.avg_maps,
                mflops=total_flops / res.parallel_time / 1e6,
            )
        )
    return Table8(
        capacity=capacity,
        n_original=n_orig,
        n_new=n_new,
        nnz_original=nnz_orig,
        nnz_new=nnz_new,
        rows=rows,
    )

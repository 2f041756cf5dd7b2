"""Ablation — fragmentation of a real address-space allocator.

The paper's conclusion: "space freed from irregular dependence
structures usually contains many small pieces and is hard to be
re-utilized.  To address this fragmentation problem, it is necessary to
develop a special memory allocator."  This ablation replays the volatile
alloc/free sequence of a MAP plan against the first-fit
:class:`~repro.machine.memory.FreeListAllocator` and reports how much
extra headroom (over the object-exact ``MIN_MEM``) a contiguous heap
needs before every allocation succeeds.
"""

from repro.errors import MemoryError_
from repro.experiments.report import render_table
from repro.machine.memory import FreeListAllocator


def replay(plan, graph, proc: int, capacity: int) -> bool:
    """Replay a processor's MAP alloc/free sequence; False on failure."""
    perm = plan.profile.procs[proc].perm_bytes
    heap = FreeListAllocator(capacity)
    if perm:
        heap.alloc("<perm>", perm)
    try:
        for mp in plan.points[proc]:
            for o in mp.frees:
                heap.free(o)
            for o in mp.allocs:
                heap.alloc(o, graph.object(o).size)
    except MemoryError_:
        return False
    return True


def test_fragmentation_headroom(benchmark, ctx, record):
    from repro.core.maps import plan_maps

    key, p = "chol15", 8
    sched = ctx.schedule(key, p, "rcp")
    prof = ctx.profile(key, p, "rcp")
    capacity = int(prof.tot * 0.6)
    plan = plan_maps(prof, capacity)

    def measure():
        rows = []
        for headroom in (1.0, 1.05, 1.1, 1.25, 1.5):
            ok = all(
                replay(plan, sched.graph, q, int(capacity * headroom))
                for q in range(p)
            )
            rows.append((headroom, ok))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    record(
        "ablation_fragmentation",
        render_table(
            ["headroom", "first-fit heap succeeds"],
            [[f"{h:.2f}x", str(ok)] for h, ok in rows],
            title="Ablation: first-fit heap vs object-exact accounting "
            f"(Cholesky, P={p}, capacity=60% TOT)",
        ),
    )
    # With enough headroom the heap always succeeds.
    assert rows[-1][1]

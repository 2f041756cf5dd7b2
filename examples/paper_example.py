#!/usr/bin/env python3
"""Walkthrough of the paper's worked example (Figures 2, 3 and 5).

Reconstructs the 20-task / 11-object DAG, prints the Gantt charts of the
Figure 2(b)/(c) schedules, the memory analysis (MEM_REQ / MIN_MEM), the
MAP plan under 8 memory units (Figure 3(a)) and the DCG slice order of
the DTS schedule (Figure 5).

Run:  python examples/paper_example.py
"""

from repro.core import analyze_memory, dts_order, gantt, mem_req_of_task, plan_maps
from repro.core.dcg import build_dcg
from repro.graph.paper_example import (
    paper_assignment,
    paper_example_graph,
    paper_placement,
    schedule_b,
    schedule_c,
)


def main() -> None:
    g = paper_example_graph()
    pl = paper_placement()
    asg = paper_assignment(g, pl)
    print(f"Figure 2(a) DAG: {g.num_tasks} tasks, {g.num_objects} objects, "
          f"{g.num_edges} edges")
    print(f"PERM(P0) = {sorted(pl.owned_by(0))}")
    print(f"PERM(P1) = {sorted(pl.owned_by(1))}")

    for label, sched in (("Figure 2(b) — RCP-style", schedule_b(g)),
                         ("Figure 2(c) — MPO-style", schedule_c(g))):
        prof = analyze_memory(sched)
        print(f"\n{label}:  MIN_MEM = {prof.min_mem}")
        print(gantt(sched).as_ascii(unit=0.12))
        if "2(b)" in label:
            print(f"  MEM_REQ(T[8,9], P0) = {mem_req_of_task(prof, 'T[8,9]')} "
                  f"(paper: 7)")
            print(f"  MEM_REQ(T[7,8], P1) = {mem_req_of_task(prof, 'T[7,8]')} "
                  f"(paper: 9)")

    # Figure 3(a): MAPs when running (c) with 8 units per processor.
    sc = schedule_c(g)
    plan = plan_maps(analyze_memory(sc), 8)
    print("\nFigure 3(a) — MAP plan of (c) under capacity 8:")
    for q, points in enumerate(plan.points):
        for mp in points:
            before = sc.orders[q][mp.position]
            print(f"  P{q} MAP before {before}: free {mp.frees or '-'}, "
                  f"alloc {mp.allocs or '-'}, notify {dict(mp.notifications) or '-'}")

    # Figure 5: DCG slices and the DTS schedule.
    dcg = build_dcg(g)
    order = " -> ".join(objs[0] for objs in dcg.comp_objects)
    print(f"\nFigure 5(a) — DCG slice order: {order}")
    sd = dts_order(g, pl, asg)
    prof = analyze_memory(sd)
    print(f"Figure 5(b) — DTS schedule: MIN_MEM = {prof.min_mem} (paper: 7)")
    print(gantt(sd).as_ascii(unit=0.12))


if __name__ == "__main__":
    main()

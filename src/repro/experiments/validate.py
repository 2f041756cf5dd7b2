"""Replication scorecard: machine-checkable claims from the paper.

``python -m repro validate`` runs every qualitative claim the
reproduction stands on — the exact worked-example numbers and the
directional trends of each table/figure — and prints a PASS/FAIL
checklist.  This is the one-command answer to "did the reproduction
hold up on this machine?".

The checks use reduced configurations (seconds, not minutes); the full
sweeps live in ``benchmarks/``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .common import ExperimentContext, compare_pt
from .figure7 import figure7
from .tables import table1


@dataclass
class Claim:
    name: str
    source: str  # where in the paper
    passed: bool
    detail: str = ""


def _paper_example_claims() -> list[Claim]:
    from ..core import analyze_memory, dts_order, mem_req_of_task, plan_maps
    from ..core.dcg import build_dcg
    from ..graph.paper_example import (
        DCG_SLICE_ORDER,
        paper_assignment,
        paper_example_graph,
        paper_placement,
        schedule_b,
        schedule_c,
    )

    g = paper_example_graph()
    pl = paper_placement()
    asg = paper_assignment(g, pl)
    pb = analyze_memory(schedule_b(g))
    pc = analyze_memory(schedule_c(g))
    dts = analyze_memory(dts_order(g, pl, asg))
    dcg = build_dcg(g)
    slices = tuple(o[0] for o in dcg.comp_objects)
    plan = plan_maps(pc, 8)
    extra = plan.points[1][-1]
    claims = [
        Claim("MIN_MEM of Fig 2(b) schedule = 9", "sec. 3.2",
              pb.min_mem == 9, f"got {pb.min_mem}"),
        Claim("MIN_MEM of Fig 2(c) schedule = 8", "sec. 3.2",
              pc.min_mem == 8, f"got {pc.min_mem}"),
        Claim("MEM_REQ(T[8,9], P0) = 7", "sec. 3.2",
              mem_req_of_task(pb, "T[8,9]") == 7, ""),
        Claim("MEM_REQ(T[7,8], P1) = 9", "sec. 3.2",
              mem_req_of_task(pb, "T[7,8]") == 9, ""),
        Claim("DTS schedule MIN_MEM = 7", "Fig. 5",
              dts.min_mem == 7, f"got {dts.min_mem}"),
        Claim("DCG slice order d1,d3,d4,d5,d7,d8,d2", "Fig. 5(a)",
              slices == DCG_SLICE_ORDER, f"got {slices}"),
        Claim("MAP after T[5,10] frees d3,d5 and allocates d7", "Fig. 3(a)",
              set(extra.frees) >= {"d3", "d5"} and "d7" in extra.allocs, ""),
    ]
    return claims


def _trend_claims(ctx: ExperimentContext) -> list[Claim]:
    claims: list[Claim] = []

    # Table 1: ratio grows with p.
    t1 = table1(ctx, procs=(2, 4, 8))
    claims.append(
        Claim(
            "Table 1: memory/(S1/p) ratio grows with p",
            "Table 1",
            t1.ratios[2] < t1.ratios[4] < t1.ratios[8],
            f"{t1.ratios[2]:.2f} < {t1.ratios[4]:.2f} < {t1.ratios[8]:.2f}",
        )
    )

    # Table 2: overhead grows with p at 100%; inf cells exist at low p.
    full = [ctx.run_cell("chol15", p, "rcp", 1.0) for p in (4, 16)]
    tight = ctx.run_cell("chol15", 2, "rcp", 0.5)
    claims.append(
        Claim("Table 2: management overhead grows with p", "Table 2",
              0 <= full[0].pt_increase <= full[1].pt_increase,
              f"{full[0].pt_increase_pct:.1f}% -> {full[1].pt_increase_pct:.1f}%"))
    claims.append(
        Claim("Table 2: non-executable cells at small p / memory", "Table 2",
              not tight.executable, ""))

    # Table 3: LU far less overhead-sensitive at 100%.
    lu16 = ctx.run_cell("lu-goodwin", 16, "rcp", 1.0)
    ch16 = ctx.run_cell("chol15", 16, "rcp", 1.0)
    claims.append(
        Claim("Table 3: LU overhead below Cholesky's at 100%", "sec. 5.1",
              lu16.pt_increase < ch16.pt_increase,
              f"{lu16.pt_increase_pct:.1f}% vs {ch16.pt_increase_pct:.1f}%"))

    # Table 4/5: MPO competitive in time, never more MAPs, >= executability.
    rcp = ctx.run_cell("chol15", 8, "rcp", 0.75, reference="rcp")
    mpo = ctx.run_cell("chol15", 8, "mpo", 0.75, reference="rcp")
    claims.append(
        Claim("Table 4: MPO within ±20% of RCP's time", "Table 4",
              rcp.executable and mpo.executable
              and abs(compare_pt(rcp, mpo)) < 0.2,
              f"ratio {compare_pt(rcp, mpo):+.1%}" if rcp.executable and mpo.executable else ""))
    claims.append(
        Claim("Table 5: MPO needs no more MAPs than RCP", "Table 5",
              mpo.avg_maps <= rcp.avg_maps + 1e-9,
              f"{mpo.avg_maps:.2f} vs {rcp.avg_maps:.2f}"))
    m_rcp = ctx.profile("chol15", 8, "rcp").min_mem
    m_mpo = ctx.profile("chol15", 8, "mpo").min_mem
    claims.append(
        Claim("MPO's MIN_MEM <= RCP's", "Fig. 7",
              m_mpo <= m_rcp, f"{m_mpo} vs {m_rcp}"))

    # Table 6: DTS slower than MPO; LU gap bigger than Cholesky's.
    dts = ctx.run_cell("chol15", 8, "dts", 0.75, reference="rcp")
    claims.append(
        Claim("Table 6: plain DTS slower than MPO", "Table 6",
              dts.executable and mpo.executable and dts.parallel_time > mpo.parallel_time,
              f"+{compare_pt(mpo, dts):.1%}" if dts.executable and mpo.executable else ""))

    # Table 7: DTS with slice merging close to RCP.
    dtsm = ctx.run_cell("chol15", 8, "dts-merge", 0.75, reference="rcp")
    claims.append(
        Claim("Table 7: DTS+merge within ±20% of RCP", "Table 7",
              dtsm.executable
              and abs(dtsm.parallel_time / rcp.parallel_time - 1.0) < 0.2,
              f"{dtsm.parallel_time / rcp.parallel_time - 1.0:+.1%}"
              if dtsm.executable else ""))

    # Figure 7: scalability ordering, RCP flat for LU.
    f7 = figure7(ctx, "lu", procs=(8,))
    claims.append(
        Claim("Figure 7(b): RCP not memory-scalable for LU", "Fig. 7",
              f7.series["RCP"][0] < 0.5 * 8
              and f7.series["MPO"][0] > f7.series["RCP"][0],
              f"RCP {f7.series['RCP'][0]:.2f}, MPO {f7.series['MPO'][0]:.2f} (perfect 8)"))

    # Theorem 2 on both applications.
    from ..core import analyze_memory, dts_order
    from ..core.dts import dts_space_bound

    for key in ("chol15", "lu-goodwin"):
        prob = ctx.problem(key)
        pl = prob.placement(8)
        asg = prob.assignment(pl)
        bound = dts_space_bound(prob.graph, pl, asg)
        mm = analyze_memory(dts_order(prob.graph, pl, asg, ctx.spec.comm_model())).min_mem
        claims.append(
            Claim(f"Theorem 2 bound holds ({key})", "Thm. 2",
                  mm <= bound, f"{mm} <= {bound}"))

    # Exact baseline: the B&B proves the paper's DTS value (7) is the
    # memory optimum of the worked example, and the tree-specialised
    # heuristic is no worse than MPO on the elimination-tree workload.
    from ..core import mpo_order, tree_order
    from ..graph.paper_example import (
        paper_assignment,
        paper_example_graph,
        paper_placement,
    )
    from ..opt.exact import solve

    g = paper_example_graph()
    pl = paper_placement()
    res = solve(g, pl, paper_assignment(g, pl), objective="memory")
    claims.append(
        Claim("Exact solver proves MIN_MEM* = 7 on Fig. 2", "Fig. 5",
              res.proved and res.value == 7,
              f"{res.status} value={res.value} ({res.nodes} nodes)"))
    prob = ctx.problem("etree15")
    pl = prob.placement(4)
    asg = prob.assignment(pl)
    comm = ctx.spec.comm_model()
    tr = analyze_memory(tree_order(prob.graph, pl, asg, comm)).min_mem
    mp = analyze_memory(mpo_order(prob.graph, pl, asg, comm)).min_mem
    claims.append(
        Claim("Tree heuristic peak <= MPO's on etree15", "sec. 4",
              tr <= mp, f"{tr} <= {mp}"))
    return claims


def validate(ctx: ExperimentContext | None = None) -> list[Claim]:
    """Run the whole scorecard; returns the claims with outcomes."""
    ctx = ctx or ExperimentContext()
    return _paper_example_claims() + _trend_claims(ctx)


def render_scorecard(claims: list[Claim]) -> str:
    width = max(len(c.name) for c in claims)
    lines = ["Replication scorecard", "=" * (width + 26)]
    for c in claims:
        mark = "PASS" if c.passed else "FAIL"
        detail = f"  ({c.detail})" if c.detail else ""
        lines.append(f"[{mark}] {c.name.ljust(width)}  {c.source}{detail}")
    n_ok = sum(c.passed for c in claims)
    lines.append(f"{n_ok}/{len(claims)} claims reproduced")
    return "\n".join(lines)

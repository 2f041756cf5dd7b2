"""Regeneration of Tables 1-7 of the paper's evaluation.

Each ``tableN`` function returns a structured result object with the raw
numbers plus a ``render()`` method producing the paper-style ASCII
table.  Workloads are the synthetic Harwell-Boeing stand-ins (see
EXPERIMENTS.md for the size mapping); the comparisons follow the
conventions of :mod:`repro.experiments.common`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .common import (
    FRACTIONS,
    FRACTIONS_CMP,
    INF,
    ExperimentContext,
    compare_pt,
)
from .report import fmt_maps, fmt_pct, fmt_ratio, render_table

CHOL_KEYS = ("chol15", "chol24")
LU_KEY = "lu-goodwin"
TABLE_PROCS = (2, 4, 8, 16, 32)


# ----------------------------------------------------------------------
# Table 1 — memory usage ratio of the original RAPID (no recycling)
# ----------------------------------------------------------------------


@dataclass
class Table1:
    """Average per-processor memory over ``S1/p``, sparse Cholesky."""

    procs: tuple[int, ...]
    ratios: dict[int, float]

    def render(self) -> str:
        return render_table(
            ["#processor"] + [str(p) for p in self.procs],
            [["ratio"] + [fmt_ratio(self.ratios[p]) for p in self.procs]],
            title="Table 1: per-processor memory usage over S1/p (Cholesky, RCP, no recycling)",
        )


def table1(ctx: ExperimentContext, procs=(2, 4, 8, 16)) -> Table1:
    ratios: dict[int, float] = {}
    for p in procs:
        vals = [
            ctx.profile(k, p, "rcp").usage_ratio_vs_ideal(recycling=False)
            for k in CHOL_KEYS
        ]
        ratios[p] = sum(vals) / len(vals)
    return Table1(procs=tuple(procs), ratios=ratios)


# ----------------------------------------------------------------------
# Tables 2 / 3 — overhead of the active memory management scheme
# ----------------------------------------------------------------------


@dataclass
class OverheadTable:
    """PT increase and #MAPs per (p, memory fraction)."""

    title: str
    procs: tuple[int, ...]
    fractions: tuple[float, ...]
    #: (p, fraction) -> PT increase / #MAPs averaged over the workloads
    pt_increase: dict[tuple[int, float], float]
    maps: dict[tuple[int, float], float]

    def render(self) -> str:
        headers = ["P"]
        for f in self.fractions:
            headers.append(f"{int(f * 100)}% PTinc")
            if f < 1.0:
                headers.append(f"{int(f * 100)}% #MAPs")
        rows = []
        for p in self.procs:
            row = [f"P={p}"]
            for f in self.fractions:
                row.append(fmt_pct(self.pt_increase[(p, f)]))
                if f < 1.0:
                    row.append(fmt_maps(self.maps[(p, f)]))
            rows.append(row)
        return render_table(headers, rows, title=self.title)


def _overhead_table(
    ctx: ExperimentContext, keys: tuple[str, ...], title: str, procs, fractions
) -> OverheadTable:
    pt_inc: dict[tuple[int, float], float] = {}
    maps: dict[tuple[int, float], float] = {}
    for p in procs:
        for f in fractions:
            cells = [ctx.run_cell(k, p, "rcp", f) for k in keys]
            if all(c.executable for c in cells):
                pt_inc[(p, f)] = sum(c.pt_increase for c in cells) / len(cells)
                maps[(p, f)] = sum(c.avg_maps for c in cells) / len(cells)
            else:
                pt_inc[(p, f)] = INF
                maps[(p, f)] = INF
    return OverheadTable(
        title=title,
        procs=tuple(procs),
        fractions=tuple(fractions),
        pt_increase=pt_inc,
        maps=maps,
    )


def table2(ctx: ExperimentContext, procs=TABLE_PROCS, fractions=FRACTIONS) -> OverheadTable:
    """Effectiveness of the run-time execution scheme, sparse Cholesky."""
    return _overhead_table(
        ctx, CHOL_KEYS,
        "Table 2: active memory management overhead (Cholesky, RCP order)",
        procs, fractions,
    )


def table3(ctx: ExperimentContext, procs=TABLE_PROCS, fractions=FRACTIONS) -> OverheadTable:
    """Effectiveness of the run-time execution scheme, sparse LU."""
    return _overhead_table(
        ctx, (LU_KEY,),
        "Table 3: active memory management overhead (LU w/ pivoting, RCP order)",
        procs, fractions,
    )


# ----------------------------------------------------------------------
# Tables 4 / 6 / 7 — pairwise heuristic comparisons
# ----------------------------------------------------------------------


@dataclass
class ComparisonTable:
    """'A vs. B' parallel-time table: entries ``PT_B/PT_A - 1``."""

    title: str
    procs: tuple[int, ...]
    fractions: tuple[float, ...]
    entries: dict[tuple[int, float], float | str]

    def render(self) -> str:
        headers = ["Mem."] + [f"{int(f * 100)}%" for f in self.fractions]
        rows = []
        for p in self.procs:
            rows.append(
                [f"P={p}"] + [fmt_pct(self.entries[(p, f)]) for f in self.fractions]
            )
        return render_table(headers, rows, title=self.title)


def _comparison(
    ctx: ExperimentContext,
    key: str,
    heur_a: str,
    heur_b: str,
    title: str,
    procs,
    fractions,
) -> ComparisonTable:
    entries: dict[tuple[int, float], float | str] = {}
    for p in procs:
        for f in fractions:
            a = ctx.run_cell(key, p, heur_a, f, reference="rcp")
            b = ctx.run_cell(key, p, heur_b, f, reference="rcp")
            entries[(p, f)] = compare_pt(a, b)
    return ComparisonTable(
        title=title, procs=tuple(procs), fractions=tuple(fractions), entries=entries
    )


def table4(
    ctx: ExperimentContext, app: str = "cholesky", procs=TABLE_PROCS, fractions=FRACTIONS_CMP
) -> ComparisonTable:
    """RCP vs MPO parallel times (Table 4a: Cholesky, 4b: LU)."""
    key = "chol15" if app == "cholesky" else LU_KEY
    return _comparison(
        ctx, key, "rcp", "mpo",
        f"Table 4 ({app}): RCP vs MPO (PT_MPO/PT_RCP - 1)",
        procs, fractions,
    )


def table6(
    ctx: ExperimentContext, app: str = "cholesky", procs=TABLE_PROCS, fractions=FRACTIONS_CMP
) -> ComparisonTable:
    """MPO vs DTS parallel times (Table 6)."""
    key = "chol15" if app == "cholesky" else LU_KEY
    return _comparison(
        ctx, key, "mpo", "dts",
        f"Table 6 ({app}): MPO vs DTS (PT_DTS/PT_MPO - 1)",
        procs, fractions,
    )


def table7(
    ctx: ExperimentContext, app: str = "cholesky", procs=TABLE_PROCS, fractions=FRACTIONS_CMP
) -> ComparisonTable:
    """RCP vs DTS-with-slice-merging parallel times (Table 7)."""
    key = "chol15" if app == "cholesky" else LU_KEY
    return _comparison(
        ctx, key, "rcp", "dts-merge",
        f"Table 7 ({app}): RCP vs DTS+merge (PT_DTSm/PT_RCP - 1)",
        procs, fractions,
    )


# ----------------------------------------------------------------------
# Table 5 — #MAPs, RCP vs MPO
# ----------------------------------------------------------------------


@dataclass
class Table5:
    procs: tuple[int, ...]
    fractions: tuple[float, ...]
    #: entries[(p, f)] = (maps_rcp, maps_mpo)
    entries: dict[tuple[int, float], tuple[float, float]]

    def render(self) -> str:
        headers = ["Mem."] + [f"{int(f * 100)}%" for f in self.fractions]
        rows = []
        for p in self.procs:
            row = [f"P={p}"]
            for f in self.fractions:
                a, b = self.entries[(p, f)]
                row.append(f"{fmt_maps(a)}/{fmt_maps(b)}")
            rows.append(row)
        return render_table(
            headers, rows,
            title="Table 5: average #MAPs for sparse Cholesky, RCP vs MPO",
        )


def table5(
    ctx: ExperimentContext, procs=TABLE_PROCS, fractions=FRACTIONS_CMP
) -> Table5:
    entries: dict[tuple[int, float], tuple[float, float]] = {}
    for p in procs:
        for f in fractions:
            a = ctx.run_cell("chol15", p, "rcp", f, reference="rcp")
            b = ctx.run_cell("chol15", p, "mpo", f, reference="rcp")
            entries[(p, f)] = (
                a.avg_maps if a.executable else INF,
                b.avg_maps if b.executable else INF,
            )
    return Table5(procs=tuple(procs), fractions=tuple(fractions), entries=entries)


# ----------------------------------------------------------------------
# Optimality-gap scorecard — heuristics vs the exact solver (repro.opt)
# ----------------------------------------------------------------------

#: Default scorecard grid: the worked example (fixed 2-processor
#: placement) plus the elimination-tree workload the tree heuristic is
#: specialised for.
SCORECARD_WORKLOADS = ("paper", "etree15")
SCORECARD_PROCS = (2, 4)
#: Node budget per (instance, objective) solve.  Small instances prove
#: optimality in a handful of nodes; on the tree workloads the memory
#: objective still proves instantly (the per-task hold bound is tight)
#: while the time objective typically certifies a lower bound instead.
SCORECARD_NODE_BUDGET = 20_000


@dataclass
class GapScorecard:
    """Per-heuristic optimality gaps against the exact references.

    ``entries`` is one :class:`repro.opt.gaps.WorkloadGaps` per
    (workload, processors) instance.  Gap semantics follow
    :mod:`repro.opt.gaps`: exact against a proved optimum (``=``
    reference rows), an upper bound on the true gap against a certified
    lower bound (``>=`` reference rows).  An unproved reference is the
    stronger of the solver's root bound and the closed-form static
    bound of :mod:`repro.analysis.bounds`; a trailing ``†`` marks
    references the static bound supplied (see ``docs/analysis.md``).
    """

    node_budget: int
    entries: tuple

    def render(self) -> str:
        headers = [
            "workload", "P", "heuristic", "PT", "gap(PT)", "peak", "gap(MEM)",
        ]
        rows = []
        for e in self.entries:
            t_mark = "=" if e.time.proved else ">="
            m_mark = "=" if e.memory.proved else ">="
            t_src = "†" if e.time_ref_source == "static-bound" else ""
            m_src = "†" if e.mem_ref_source == "static-bound" else ""
            rows.append([
                e.workload, str(e.procs), "exact",
                f"{t_mark}{e.time_ref:.4g}{t_src}", "-",
                f"{m_mark}{e.mem_ref:g}{m_src}", "-",
            ])
            for r in e.rows:
                rows.append([
                    e.workload, str(e.procs),
                    r.heuristic + ("*" if r.own_placement else ""),
                    f"{r.pt:.4g}", fmt_pct(r.gap_pt),
                    str(r.peak), fmt_pct(r.gap_peak),
                ])
        table = render_table(
            headers, rows,
            title="Scorecard: heuristic optimality gaps vs the exact solver",
        )
        return table + (
            "\n(reference rows: '=' proved optimal, '>=' certified lower "
            f"bound at {self.node_budget} nodes/objective; "
            "'†' = static bound beat the solver's root bound; "
            "'*' = derives its own placement)"
        )


def gap_scorecard(
    ctx: ExperimentContext,
    workloads=SCORECARD_WORKLOADS,
    procs=SCORECARD_PROCS,
    heuristics=None,
    node_budget=SCORECARD_NODE_BUDGET,
) -> GapScorecard:
    """Run the exact solver on each instance and gap every heuristic.

    ``"paper"`` is the Figure 2 worked example under its fixed
    2-processor placement and unit communication (it appears once,
    whatever ``procs`` says); every other key resolves through
    ``ctx.problem()`` and is swept over ``procs`` with the machine's
    communication model.
    """
    from ..core.schedule import UNIT_COMM
    from ..opt.gaps import GAP_HEURISTICS, optimality_gaps

    if heuristics is None:
        heuristics = GAP_HEURISTICS
    entries = []
    for key in workloads:
        if key == "paper":
            from ..graph.paper_example import (
                paper_assignment,
                paper_example_graph,
                paper_placement,
            )

            g = paper_example_graph()
            pl = paper_placement()
            entries.append(optimality_gaps(
                g, pl, paper_assignment(g, pl), UNIT_COMM,
                workload="paper", heuristics=heuristics,
                node_budget=node_budget,
            ))
            continue
        prob = ctx.problem(key)
        comm = ctx.spec.comm_model()
        for p in procs:
            pl = prob.placement(p)
            entries.append(optimality_gaps(
                prob.graph, pl, prob.assignment(pl), comm,
                workload=key, procs=p, heuristics=heuristics,
                node_budget=node_budget,
            ))
    return GapScorecard(node_budget=node_budget, entries=tuple(entries))

"""Self-contained HTML telemetry report (SVG via :mod:`repro.core.viz`).

One instrumented run renders to a single HTML file with no external
assets: a state-residency stacked bar per processor, the per-processor
allocated-memory step curves against the capacity line, the queue-depth
histograms, and the counter table.  The SVG building blocks are the
generic helpers of :mod:`repro.core.viz`, so the report shares the
visual language of the Gantt / ``MEM_REQ`` figures.
"""

from __future__ import annotations

import html
from typing import Optional

from ..core.viz import stacked_bars_svg, step_curves_svg
from ..fileio import atomic_write_text
from .instruments import RESIDENCY_KEYS
from .metrics import build_metrics

#: Fixed residency colours so every report reads the same.
_RESIDENCY_COLORS = {
    "exe": "#59a14f",
    "map": "#e15759",
    "package": "#f28e2b",
    "ra": "#edc948",
    "send": "#4e79a7",
    "idle": "#bab0ac",
    "done": "#eeeeee",
}


def _table(headers: list[str], rows: list[list]) -> str:
    head = "".join(f"<th>{html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{html.escape(str(c))}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def html_report(result, path: Optional[str] = None) -> str:
    """Render the telemetry report of an instrumented run.

    Requires ``Simulator(..., metrics=True)``; raises ``ValueError``
    otherwise.  Returns the HTML text (optionally written to ``path``).
    """
    suite = getattr(result, "telemetry", None)
    if suite is None:
        raise ValueError(
            "html_report needs an instrumented run: Simulator(..., metrics=True)"
        )
    metrics = result.metrics if result.metrics is not None else build_metrics(
        result, suite
    )
    nprocs = len(result.stats)

    residency_rows = [
        (f"P{q}", {k: metrics["per_proc"][q]["residency"][k] for k in RESIDENCY_KEYS})
        for q in range(nprocs)
    ]
    residency_svg = stacked_bars_svg(
        residency_rows,
        colors=_RESIDENCY_COLORS,
        title=f"State residency (PT = {result.parallel_time:g})",
    )
    mem_series = [
        (f"P{q}", [(t, float(used)) for t, used in suite.memory.samples[q]])
        for q in range(nprocs)
    ]
    mem_svg = step_curves_svg(
        mem_series,
        hlines=(("capacity", float(result.capacity)),),
        title="Allocated volatile+permanent bytes per processor",
        x_max=result.parallel_time or None,
    )

    summary = metrics["summary"]
    summary_tbl = _table(
        ["metric", "value"],
        [[k, summary[k]] for k in sorted(summary)],
    )
    counter_tbl = _table(
        ["counter", "count"],
        [[k, v] for k, v in metrics["counters"].items()],
    )
    proc_tbl = _table(
        ["proc", "tasks", "maps", "map_overhead_frac", "hwm", "predicted_hwm",
         "max_suspq", "finish"],
        [
            [
                r["proc"], r["num_tasks"], r["num_maps"],
                f"{r['map_overhead_frac']:.4f}", r["hwm"],
                r["predicted_hwm"], r["max_suspq"], f"{r['finish_time']:g}",
            ]
            for r in metrics["per_proc"]
        ],
    )
    queue_tbl = _table(
        ["suspended-queue depth", "occurrences"],
        metrics["queues"]["suspended_hist"],
    )
    block_tbl = _table(
        ["pending packages at block", "occurrences"],
        metrics["queues"]["package_block_hist"],
    )

    doc = f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>repro telemetry — {html.escape(result.schedule_label)}</title>
<style>
 body {{ font-family: monospace; margin: 24px; color: #222; }}
 table {{ border-collapse: collapse; margin: 8px 0 20px; }}
 td, th {{ border: 1px solid #ccc; padding: 2px 8px; text-align: right; }}
 th {{ background: #f4f4f4; }}
 h2 {{ margin-top: 28px; }}
</style></head><body>
<h1>Telemetry: {html.escape(result.schedule_label)}</h1>
<p>capacity = {result.capacity} · memory_managed = {result.memory_managed}
 · parallel_time = {result.parallel_time:g}
 · map_overhead_frac = {summary["map_overhead_frac"]:.4f}</p>
<h2>State residency</h2>
{residency_svg}
<h2>Memory timeline</h2>
{mem_svg}
<h2>Per-processor metrics</h2>
{proc_tbl}
<h2>Summary</h2>
{summary_tbl}
<h2>Counters</h2>
{counter_tbl}
<h2>Queue depths</h2>
{queue_tbl}
{block_tbl}
</body></html>
"""
    if path:
        atomic_write_text(path, doc)
    return doc

"""Dependency-free SVG rendering of schedules and memory profiles.

Produces standalone SVG documents (no matplotlib) for:

* :func:`gantt_svg` — the classic Gantt chart of a schedule (Figure 2
  style): one lane per processor, one rectangle per task, colored by
  task family (the prefix before ``(`` or ``[``);
* :func:`memory_svg` — the ``MEM_REQ`` step curves of a memory profile
  (one polyline per processor) with optional capacity and ``MIN_MEM``
  rules — the picture behind Definitions 4-6;
* :func:`stacked_bars_svg` / :func:`step_curves_svg` — generic building
  blocks (horizontal 100%-stacked bars, step-function time series) used
  by the telemetry report of :mod:`repro.obs.report`.

All return the SVG text and optionally write it (crash-safely) to a file.
"""

from __future__ import annotations

import html
import zlib
from typing import Optional

from ..fileio import atomic_write_text
from .liveness import MemoryProfile
from .schedule import GanttChart

_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)


def _family(task: str) -> str:
    for sep in ("(", "[", "@"):
        if sep in task:
            return task.split(sep, 1)[0]
    return task


def _color(key: str) -> str:
    # crc32, not hash(): str hashes are salted per process, and the same
    # schedule must draw the same colours on every run.
    return _PALETTE[zlib.crc32(key.encode()) % len(_PALETTE)]


def _document(body: list[str], width: int, height: int) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="monospace" font-size="11">'
    )
    return "\n".join([head, *body, "</svg>"])


def gantt_svg(
    chart: GanttChart,
    path: Optional[str] = None,
    width: int = 960,
    lane_height: int = 28,
    label_tasks: bool = False,
) -> str:
    """Render a Gantt chart as SVG; returns the document text."""
    sched = chart.schedule
    p = sched.num_procs
    ms = chart.makespan or 1.0
    margin_l, margin_t = 48, 24
    plot_w = width - margin_l - 12
    height = margin_t + p * lane_height + 30
    scale = plot_w / ms

    body: list[str] = [
        f'<text x="{margin_l}" y="14">Gantt: PT = {ms:g} '
        f'({sched.meta.get("heuristic", "?")})</text>'
    ]
    for q in range(p):
        y = margin_t + q * lane_height
        body.append(
            f'<text x="4" y="{y + lane_height * 0.65:.0f}">P{q}</text>'
        )
        body.append(
            f'<line x1="{margin_l}" y1="{y + lane_height - 2}" '
            f'x2="{margin_l + plot_w}" y2="{y + lane_height - 2}" '
            'stroke="#ddd"/>'
        )
        for t in sched.orders[q]:
            x = margin_l + chart.start[t] * scale
            w = max((chart.finish[t] - chart.start[t]) * scale, 0.5)
            title = html.escape(
                f"{t}: [{chart.start[t]:g}, {chart.finish[t]:g}]"
            )
            body.append(
                f'<rect x="{x:.2f}" y="{y + 2}" width="{w:.2f}" '
                f'height="{lane_height - 6}" fill="{_color(_family(t))}" '
                f'stroke="#333" stroke-width="0.4"><title>{title}</title></rect>'
            )
            if label_tasks and w > 40:
                body.append(
                    f'<text x="{x + 2:.2f}" y="{y + lane_height * 0.65:.0f}" '
                    f'font-size="9">{html.escape(t)}</text>'
                )
    # time axis
    axis_y = margin_t + p * lane_height + 14
    body.append(
        f'<line x1="{margin_l}" y1="{axis_y - 10}" '
        f'x2="{margin_l + plot_w}" y2="{axis_y - 10}" stroke="#333"/>'
    )
    for i in range(5):
        tx = ms * i / 4
        x = margin_l + tx * scale
        body.append(f'<text x="{x:.0f}" y="{axis_y}">{tx:g}</text>')
    doc = _document(body, width, height)
    if path:
        atomic_write_text(path, doc)
    return doc


def stacked_bars_svg(
    rows: list[tuple[str, dict[str, float]]],
    colors: Optional[dict[str, str]] = None,
    path: Optional[str] = None,
    width: int = 960,
    bar_height: int = 22,
    title: str = "",
) -> str:
    """Horizontal stacked bars, one per row, normalised to each row's
    total.  ``rows`` is ``[(label, {category: value}), ...]``; categories
    keep their first-seen order and share one legend."""
    cats: list[str] = []
    for _label, parts in rows:
        for c in parts:
            if c not in cats:
                cats.append(c)
    if colors is None:
        colors = {c: _PALETTE[i % len(_PALETTE)] for i, c in enumerate(cats)}
    margin_l, margin_t = 64, 24
    plot_w = width - margin_l - 12
    height = margin_t + len(rows) * (bar_height + 6) + 26
    body: list[str] = []
    if title:
        body.append(f'<text x="{margin_l}" y="14">{html.escape(title)}</text>')
    for i, (label, parts) in enumerate(rows):
        y = margin_t + i * (bar_height + 6)
        body.append(f'<text x="4" y="{y + bar_height * 0.7:.0f}">{html.escape(label)}</text>')
        total = sum(parts.values()) or 1.0
        x = float(margin_l)
        for c in cats:
            v = parts.get(c, 0.0)
            if v <= 0:
                continue
            w = plot_w * v / total
            tip = html.escape(f"{c}: {v:g} ({100 * v / total:.1f}%)")
            body.append(
                f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" '
                f'height="{bar_height}" fill="{colors[c]}" stroke="#333" '
                f'stroke-width="0.3"><title>{tip}</title></rect>'
            )
            x += w
    # legend
    ly = margin_t + len(rows) * (bar_height + 6) + 12
    lx = margin_l
    for c in cats:
        body.append(
            f'<rect x="{lx}" y="{ly - 9}" width="10" height="10" '
            f'fill="{colors[c]}"/>'
        )
        body.append(f'<text x="{lx + 14}" y="{ly}">{html.escape(c)}</text>')
        lx += 14 + 8 * len(c) + 18
    doc = _document(body, width, height)
    if path:
        atomic_write_text(path, doc)
    return doc


def step_curves_svg(
    series: list[tuple[str, list[tuple[float, float]]]],
    hlines: tuple[tuple[str, Optional[float]], ...] = (),
    path: Optional[str] = None,
    width: int = 960,
    height: int = 320,
    title: str = "",
    x_max: Optional[float] = None,
) -> str:
    """Step-function curves (sample-and-hold): one polyline per series.

    ``series`` is ``[(label, [(x, y), ...]), ...]`` with samples in x
    order; each value holds until the next sample.  ``hlines`` draws
    dashed horizontal rules (e.g. a capacity line)."""
    margin_l, margin_t, margin_b = 64, 24, 28
    plot_w = width - margin_l - 12
    plot_h = height - margin_t - margin_b
    xs = [x for _l, pts in series for x, _y in pts]
    right = x_max if x_max is not None else (max(xs, default=1.0) or 1.0)
    top = max(
        [v for _l, v in hlines if v]
        + [y for _l, pts in series for _x, y in pts]
    ) or 1
    body: list[str] = []
    if title:
        body.append(f'<text x="{margin_l}" y="14">{html.escape(title)}</text>')

    def xy(x: float, y: float) -> str:
        px = margin_l + plot_w * min(x / right, 1.0)
        py = margin_t + plot_h * (1 - y / top)
        return f"{px:.1f},{py:.1f}"

    for i, (label, pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        if pts:
            poly = []
            prev_y = pts[0][1]
            poly.append(xy(pts[0][0], prev_y))
            for x, y in pts[1:]:
                poly.append(xy(x, prev_y))
                poly.append(xy(x, y))
                prev_y = y
            poly.append(xy(right, prev_y))
            body.append(
                f'<polyline points="{" ".join(poly)}" fill="none" '
                f'stroke="{color}" stroke-width="1.4"/>'
            )
        body.append(
            f'<text x="{margin_l + 6 + 48 * i}" y="{height - 8}" '
            f'fill="{color}">{html.escape(label)}</text>'
        )
    for label, value in hlines:
        if value:
            y = margin_t + plot_h * (1 - value / top)
            body.append(
                f'<line x1="{margin_l}" y1="{y:.1f}" '
                f'x2="{margin_l + plot_w}" y2="{y:.1f}" stroke="#e15759" '
                'stroke-dasharray="4 3"/>'
            )
            body.append(
                f'<text x="4" y="{y + 4:.1f}" fill="#e15759">{html.escape(label)}</text>'
            )
    doc = _document(body, width, height)
    if path:
        atomic_write_text(path, doc)
    return doc


def memory_svg(
    profile: MemoryProfile,
    path: Optional[str] = None,
    capacity: Optional[int] = None,
    width: int = 960,
    height: int = 320,
) -> str:
    """Render per-processor ``MEM_REQ`` step curves as SVG."""
    margin_l, margin_t, margin_b = 64, 24, 28
    plot_w = width - margin_l - 12
    plot_h = height - margin_t - margin_b
    top = max(
        [capacity or 0, profile.min_mem]
        + [max(pp.mem_req, default=0) for pp in profile.procs]
    ) or 1
    body: list[str] = [
        f'<text x="{margin_l}" y="14">MEM_REQ per task position '
        f'(MIN_MEM = {profile.min_mem}, TOT = {profile.tot})</text>'
    ]

    def y_of(v: float) -> float:
        return margin_t + plot_h * (1 - v / top)

    for q, pp in enumerate(profile.procs):
        n = max(len(pp.mem_req), 1)
        pts = []
        for i, v in enumerate(pp.mem_req):
            x0 = margin_l + plot_w * i / n
            x1 = margin_l + plot_w * (i + 1) / n
            pts.append(f"{x0:.1f},{y_of(v):.1f}")
            pts.append(f"{x1:.1f},{y_of(v):.1f}")
        color = _PALETTE[q % len(_PALETTE)]
        if pts:
            body.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="{color}" stroke-width="1.4"/>'
            )
        body.append(
            f'<text x="{margin_l + 6 + 48 * q}" y="{height - 8}" '
            f'fill="{color}">P{q}</text>'
        )
    for label, value, dash in (
        ("MIN_MEM", profile.min_mem, "4 3"),
        ("capacity", capacity, "1 3"),
    ):
        if value:
            y = y_of(value)
            body.append(
                f'<line x1="{margin_l}" y1="{y:.1f}" '
                f'x2="{margin_l + plot_w}" y2="{y:.1f}" stroke="#e15759" '
                f'stroke-dasharray="{dash}"/>'
            )
            body.append(
                f'<text x="4" y="{y + 4:.1f}" fill="#e15759">{label}</text>'
            )
    doc = _document(body, width, height)
    if path:
        atomic_write_text(path, doc)
    return doc

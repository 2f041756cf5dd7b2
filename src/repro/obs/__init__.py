"""``repro.obs`` — telemetry for the simulator and the sweep engine.

A zero-overhead-when-disabled instrument layer
(:class:`~repro.obs.instrument.Instrument`) that the simulator drives
with typed protocol events, built-in instruments (state residency,
memory timelines, queue depths, counters, activity timeline), and
exporters: a versioned metrics JSON document, a Chrome ``trace_event``
file for Perfetto, and a standalone HTML report.  Every Trace Event
document is built by :mod:`repro.obs.chrome_trace`, and every file is
written crash-safely by :func:`repro.fileio.atomic_write_text`.

Quick use::

    from repro.machine import Simulator
    from repro.obs import to_json, write_chrome_trace, html_report

    res = Simulator(schedule, metrics=True).run()
    to_json(res.metrics, "metrics.json")
    write_chrome_trace(res, "trace.json")     # open in ui.perfetto.dev
    html_report(res, "report.html")

See ``docs/observability.md`` for the event taxonomy and formats.
"""

from .chrome_trace import chrome_trace, merge_chrome_traces, write_chrome_trace
from .instrument import (
    HOOKS,
    NULL_INSTRUMENT,
    OVERHEAD_KINDS,
    Instrument,
    MultiInstrument,
)
from .instruments import (
    MAP_OVERHEAD_KINDS,
    RESIDENCY_KEYS,
    Counters,
    MemoryTimeline,
    MetricsSuite,
    QueueDepth,
    StateResidency,
    Timeline,
)
from .metrics import METRICS_SCHEMA, build_metrics, from_json, to_json
from .report import html_report
from .runtime import (
    RUNTIME_TRACE_SCHEMA,
    MultiSink,
    RuntimeTracer,
    SweepProgress,
    format_summary,
    status_counts,
)
from .sweep_trace import (
    load_runtime_shards,
    merge_obs_dir,
    runtime_chrome_doc,
    write_sweep_trace,
)
from .tracelog import TraceEvent, TraceLog

__all__ = [
    "HOOKS",
    "OVERHEAD_KINDS",
    "MAP_OVERHEAD_KINDS",
    "RESIDENCY_KEYS",
    "METRICS_SCHEMA",
    "NULL_INSTRUMENT",
    "Instrument",
    "MultiInstrument",
    "MetricsSuite",
    "StateResidency",
    "MemoryTimeline",
    "QueueDepth",
    "Counters",
    "Timeline",
    "TraceEvent",
    "TraceLog",
    "build_metrics",
    "to_json",
    "from_json",
    "chrome_trace",
    "merge_chrome_traces",
    "write_chrome_trace",
    "html_report",
    "RUNTIME_TRACE_SCHEMA",
    "RuntimeTracer",
    "MultiSink",
    "SweepProgress",
    "format_summary",
    "status_counts",
    "load_runtime_shards",
    "runtime_chrome_doc",
    "merge_obs_dir",
    "write_sweep_trace",
]

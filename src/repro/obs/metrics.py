"""Versioned, JSON-serialisable metrics documents.

:func:`build_metrics` flattens a :class:`~repro.obs.instruments.MetricsSuite`
plus the :class:`~repro.machine.simulator.SimResult` it observed into a
plain-``dict`` document (schema :data:`METRICS_SCHEMA`) containing only
JSON-native types, so ``from_json(to_json(doc)) == doc`` holds exactly.

Document layout::

    schema            "repro-metrics/1"
    schedule          label of the executed schedule
    parallel_time     makespan (s)
    task_finish_time  last task completion (s)
    capacity / memory_managed / num_procs
    counters          monotonic event counts (Counters.FIELDS)
    queues            {"suspended_hist": [[depth, n], ...],
                       "package_block_hist": [[pending, n], ...]}
    per_proc          one record per processor (residency seconds and
                      fractions, map_overhead_frac, hwm/predicted_hwm,
                      max_suspq, counters)
    summary           machine-wide rollups (map_overhead_frac, max_hwm,
                      max_suspq, utilization, ...)

The per-processor ``residency`` values sum to ``parallel_time`` (to
floating-point roundoff): the accounting identity behind the paper's
overhead tables.
"""

from __future__ import annotations

import json
from typing import Optional

from ..fileio import atomic_write_text
from .instruments import (
    RESIDENCY_KEYS,
    MemoryTimeline,
    MetricsSuite,
    QueueDepth,
    StateResidency,
)

#: Version tag of the metrics document format.
METRICS_SCHEMA = "repro-metrics/1"


def _hist(d: dict[int, int]) -> list[list[int]]:
    return [[k, d[k]] for k in sorted(d)]


def summary_columns(residency: StateResidency, memory: MemoryTimeline,
                    queues: QueueDepth) -> dict:
    """The machine-wide rollups a sweep cell reports —
    ``map_overhead_frac``, ``max_hwm`` and ``max_suspq`` — from the
    three instruments that observe them; the head of
    :func:`build_metrics`' ``summary``, so the two cannot drift."""
    return {
        "map_overhead_frac": residency.map_overhead_frac(),
        "max_hwm": max(memory.high_waters(), default=0),
        "max_suspq": queues.max_suspended,
    }


def build_metrics(result, suite: MetricsSuite) -> dict:
    """Flatten ``suite``'s observations of ``result`` into a document."""
    pt = result.parallel_time
    residency = suite.residency
    predicted: Optional[list[int]] = (
        result.plan.predicted_peaks() if result.plan is not None else None
    )
    per_proc = []
    for q, st in enumerate(result.stats):
        res = residency.residency(q)
        frac = residency.fractions(q)
        hwm = suite.memory.high_water(q)
        per_proc.append(
            {
                "proc": q,
                "num_tasks": st.num_tasks,
                "num_maps": st.num_maps,
                "finish_time": st.finish_time,
                "residency": {k: res[k] for k in RESIDENCY_KEYS},
                "residency_frac": {k: frac[k] for k in RESIDENCY_KEYS},
                "map_overhead_frac": residency.map_overhead_frac(q),
                "hwm": hwm,
                "predicted_hwm": None if predicted is None else predicted[q],
                "max_suspq": suite.queues.max_suspq[q],
                "suspended_sends": st.suspended_sends,
                "package_blocks": suite.queues.package_blocks[q],
                "data_msgs_sent": st.data_msgs_sent,
                "packages_sent": st.packages_sent,
                "packages_read": st.packages_read,
            }
        )
    hwms = suite.memory.high_waters()
    summary = {
        **summary_columns(residency, suite.memory, suite.queues),
        "utilization": result.utilization,
        "idle_frac": (
            sum(residency.residency(q)["idle"] for q in range(len(result.stats)))
            / (len(result.stats) * pt)
            if pt > 0 and result.stats
            else 0.0
        ),
        "hwm_matches_prediction": (
            None if predicted is None else hwms == predicted
        ),
    }
    return {
        "schema": METRICS_SCHEMA,
        "schedule": result.schedule_label,
        "parallel_time": pt,
        "task_finish_time": result.task_finish_time,
        "capacity": result.capacity,
        "memory_managed": result.memory_managed,
        "num_procs": len(result.stats),
        "counters": dict(suite.counters.counts),
        "queues": {
            "suspended_hist": _hist(suite.queues.suspq_hist),
            "package_block_hist": _hist(suite.queues.block_hist),
        },
        "per_proc": per_proc,
        "summary": summary,
    }


def to_json(metrics: dict, path: Optional[str] = None) -> str:
    """Serialise a metrics document; optionally write it to ``path``."""
    text = json.dumps(metrics, indent=2, sort_keys=False) + "\n"
    if path:
        atomic_write_text(path, text)
    return text


def from_json(text: str) -> dict:
    """Parse a metrics document, checking the schema tag."""
    doc = json.loads(text)
    schema = doc.get("schema")
    if schema != METRICS_SCHEMA:
        raise ValueError(
            f"unsupported metrics schema {schema!r} (expected {METRICS_SCHEMA!r})"
        )
    return doc

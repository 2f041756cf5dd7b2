"""Chrome ``trace_event`` export (Perfetto / ``chrome://tracing``).

The one module that knows the Trace Event JSON-object format: the
seconds → microseconds scale (:data:`US`), the ``M`` process and thread
names, the ``X`` / ``i`` / ``s``+``f`` / ``C`` event shapes and the
document envelope (:func:`trace_document`).  Every trace the package
emits is built on them, under one of three schemas:

* ``repro-chrome-trace/1`` — :func:`chrome_trace`, one instrumented
  run: one **track** (``tid``) per simulated processor under ``pid`` 0;
  protocol activity (task execution, MAP work, package assembly, RA
  reads, send overheads) and the derived blocked-state intervals
  (REC / MAP-blocked / END-drain) as complete events; MAPs as instants;
  every data put as a **flow** from the sender's track at issue time to
  the receiver's track at arrival; per-processor allocated-bytes
  **counters**;
* ``repro-conformance-trace/1`` —
  :func:`~repro.conformance.invariants.violation_trace`, the invariant
  checker's recent-event window;
* ``repro-sweep-trace/1`` —
  :func:`~repro.obs.sweep_trace.runtime_chrome_doc` (supervisor and
  worker shards) and :func:`merge_chrome_traces`.

Timestamps are microseconds (the unit the viewers expect); the body is
sorted by ``ts`` so each track is monotonic.  :func:`write_trace`
serialises a document and writes it crash-safely.  Load the file with
https://ui.perfetto.dev or ``chrome://tracing``.
"""

from __future__ import annotations

import json
from typing import Optional

from ..fileio import atomic_write_text

#: Simulator (or trace) seconds -> trace microseconds.
US = 1e6

CHROME_TRACE_SCHEMA = "repro-chrome-trace/1"
CONFORMANCE_TRACE_SCHEMA = "repro-conformance-trace/1"
SWEEP_TRACE_SCHEMA = "repro-sweep-trace/1"

_STATE_LABELS = {"REC": "REC(wait)", "MAP": "MAP(blocked)", "END": "END(drain)"}


def process_name(pid: int, name: str) -> dict:
    """``M`` event naming process ``pid``."""
    return {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name}}


def thread_names(nprocs: int) -> list[dict]:
    """``M`` events naming one ``P<q>`` thread per processor of pid 0."""
    return [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": q,
         "args": {"name": f"P{q}"}}
        for q in range(nprocs)
    ]


def span(name, cat, pid, tid, ts, dur, args=None) -> dict:
    """Complete (``X``) event; ``ts`` and ``dur`` in microseconds."""
    ev = {"name": name, "cat": cat, "ph": "X", "pid": pid, "tid": tid,
          "ts": ts, "dur": dur}
    if args is not None:
        ev["args"] = args
    return ev


def instant(name, cat, pid, tid, ts, args, scope: str = "t") -> dict:
    """Instant (``i``) event; ``scope`` ``"t"`` (thread) or ``"p"``
    (process, drawn across the whole track group)."""
    return {"name": name, "cat": cat, "ph": "i", "s": scope, "pid": pid,
            "tid": tid, "ts": ts, "args": args}


def flow(name, cat, fid, src, dst) -> list[dict]:
    """Flow arrow (``s`` → ``f``) from ``src`` to ``dst``, each a
    ``(pid, tid, ts)`` triple; viewers pair the two by
    ``(cat, name, id)``."""
    (spid, stid, sts), (dpid, dtid, dts) = src, dst
    return [
        {"name": name, "cat": cat, "ph": "s", "id": fid, "pid": spid,
         "tid": stid, "ts": sts},
        {"name": name, "cat": cat, "ph": "f", "bp": "e", "id": fid,
         "pid": dpid, "tid": dtid, "ts": dts},
    ]


def trace_document(events: list[dict], schema: str, **other) -> dict:
    """The envelope: ``M`` metadata first, then the other events by
    ``ts`` (a stable sort: events with equal stamps keep their order),
    and ``otherData`` led by the ``schema`` tag."""
    events.sort(key=lambda e: (e.get("ph") != "M", e.get("ts", 0)))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": schema, **other},
    }


def write_trace(doc: dict, path: Optional[str] = None) -> str:
    """Serialise a trace document; optionally write it to ``path``."""
    text = json.dumps(doc) + "\n"
    if path:
        atomic_write_text(path, text)
    return text


def chrome_trace(result) -> dict:
    """Build the trace document for an instrumented :class:`SimResult`.

    Requires the result of a ``Simulator(..., metrics=True)`` run
    (``result.telemetry`` holds the suite); raises ``ValueError``
    otherwise.
    """
    suite = getattr(result, "telemetry", None)
    if suite is None:
        raise ValueError(
            "chrome_trace needs an instrumented run: Simulator(..., metrics=True)"
        )
    tl = suite.timeline
    events = [
        process_name(0, f"repro simulator ({result.schedule_label})"),
        *thread_names(tl.nprocs),
    ]
    for q in range(tl.nprocs):
        for t0, t1, name, cat in tl.activity[q]:
            events.append(span(name, cat, 0, q, t0 * US, (t1 - t0) * US))
        for t0, t1, state in tl.blocked_intervals(q):
            events.append(span(_STATE_LABELS.get(state, state), "state",
                               0, q, t0 * US, (t1 - t0) * US))
    for t, proc, position, nfrees, nallocs in tl.map_points:
        events.append(instant(f"MAP@{position}", "map", 0, proc, t * US,
                              {"frees": nfrees, "allocs": nallocs}))
    for i, (t_send, t_arrive, src, dest, obj) in enumerate(tl.puts):
        events += flow(f"put {obj}", "put", i, (0, src, t_send * US),
                       (0, dest, t_arrive * US))
    for q, samples in enumerate(suite.memory.samples):
        for t, used in samples:
            events.append({"name": f"allocated P{q}", "cat": "memory",
                           "ph": "C", "pid": 0, "tid": q, "ts": t * US,
                           "args": {"bytes": used}})
    return trace_document(
        events,
        CHROME_TRACE_SCHEMA,
        schedule=result.schedule_label,
        capacity=result.capacity,
        memory_managed=result.memory_managed,
        parallel_time=result.parallel_time,
    )


def write_chrome_trace(result, path: Optional[str] = None) -> str:
    """Serialise :func:`chrome_trace`; optionally write to ``path``."""
    return write_trace(chrome_trace(result), path)


def merge_chrome_traces(docs) -> dict:
    """Fold several Chrome trace documents into one multi-track trace.

    Each input keeps its own set of tracks: when two documents claim the
    same ``pid`` (every per-cell trace uses pid 0), the later document's
    colliding pids are remapped to fresh ids so their tracks never
    interleave.  Flow ids are renumbered per document for the same
    reason (every per-cell trace numbers its puts from 0, and viewers
    pair an ``s`` with an ``f`` by ``(cat, name, id)``).  Empty
    documents (no ``traceEvents``) are tolerated and contribute
    nothing.  The merged body is re-sorted — ``M``-phase metadata first,
    then by ``ts`` — so out-of-order inputs still yield a
    Perfetto-loadable file with monotonic tracks.
    """
    merged: list[dict] = []
    used_pids: set[int] = set()
    sources: list[dict] = []
    next_flow = 0
    for doc in docs:
        events = doc.get("traceEvents") or []
        other = doc.get("otherData") or {}
        sources.append({"schema": other.get("schema"), "events": len(events)})
        pids: dict[int, int] = {}
        for pid in sorted({int(e.get("pid", 0)) for e in events}):
            new = pid
            while new in used_pids:
                new = max(used_pids) + 1
            pids[pid] = new
            used_pids.add(new)
        flows: dict = {}
        for e in events:
            out = dict(e, pid=pids[int(e.get("pid", 0))])
            if "id" in e and e.get("ph") in ("s", "t", "f"):
                out["id"] = flows.setdefault(e["id"], next_flow + len(flows))
            merged.append(out)
        next_flow += len(flows)
    return trace_document(merged, SWEEP_TRACE_SCHEMA, sources=sources)

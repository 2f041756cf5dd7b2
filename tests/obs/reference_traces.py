"""Frozen reference Trace Event builders: ``chrome_trace``,
``merge_chrome_traces``, ``violation_trace`` and ``runtime_chrome_doc``
as they stood when each module built its Trace Event documents by hand,
before all of them went through the shared helpers of
:mod:`repro.obs.chrome_trace`.

Kept verbatim apart from this docstring and the module-level names
(one ``_US``; the functions sit side by side in one file).  Do not
"fix" or speed this copy up: it is the oracle the builders must equal,
float values included.  The one intended difference is in
``merge_chrome_traces``: the live merge renumbers flow ``id``s per
source document, which this copy does not.
"""

from __future__ import annotations

from typing import Optional

#: Simulator seconds -> trace microseconds.
_US = 1e6


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
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": f"repro simulator ({result.schedule_label})"},
        }
    ]
    for q in range(tl.nprocs):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": q,
                "args": {"name": f"P{q}"},
            }
        )

    body: list[dict] = []
    for q in range(tl.nprocs):
        for t0, t1, name, cat in tl.activity[q]:
            body.append(
                {
                    "name": name,
                    "cat": cat,
                    "ph": "X",
                    "pid": 0,
                    "tid": q,
                    "ts": t0 * _US,
                    "dur": (t1 - t0) * _US,
                }
            )
        for t0, t1, state in tl.blocked_intervals(q):
            label = {"REC": "REC(wait)", "MAP": "MAP(blocked)", "END": "END(drain)"}
            body.append(
                {
                    "name": label.get(state, state),
                    "cat": "state",
                    "ph": "X",
                    "pid": 0,
                    "tid": q,
                    "ts": t0 * _US,
                    "dur": (t1 - t0) * _US,
                }
            )
    for t, proc, position, nfrees, nallocs in tl.map_points:
        body.append(
            {
                "name": f"MAP@{position}",
                "cat": "map",
                "ph": "i",
                "s": "t",
                "pid": 0,
                "tid": proc,
                "ts": t * _US,
                "args": {"frees": nfrees, "allocs": nallocs},
            }
        )
    for i, (t_send, t_arrive, src, dest, obj) in enumerate(tl.puts):
        body.append(
            {
                "name": f"put {obj}",
                "cat": "put",
                "ph": "s",
                "id": i,
                "pid": 0,
                "tid": src,
                "ts": t_send * _US,
            }
        )
        body.append(
            {
                "name": f"put {obj}",
                "cat": "put",
                "ph": "f",
                "bp": "e",
                "id": i,
                "pid": 0,
                "tid": dest,
                "ts": t_arrive * _US,
            }
        )
    for q, samples in enumerate(suite.memory.samples):
        for t, used in samples:
            body.append(
                {
                    "name": f"allocated P{q}",
                    "cat": "memory",
                    "ph": "C",
                    "pid": 0,
                    "tid": q,
                    "ts": t * _US,
                    "args": {"bytes": used},
                }
            )
    body.sort(key=lambda e: e["ts"])
    events.extend(body)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": "repro-chrome-trace/1",
            "schedule": result.schedule_label,
            "capacity": result.capacity,
            "memory_managed": result.memory_managed,
            "parallel_time": result.parallel_time,
        },
    }


def merge_chrome_traces(docs) -> dict:
    """Fold several Chrome trace documents into one multi-track trace.

    Each input keeps its own set of tracks: when two documents claim the
    same ``pid`` (every per-cell trace uses pid 0), the later document's
    colliding pids are remapped to fresh ids so their tracks never
    interleave.  Empty documents (no ``traceEvents``) are tolerated and
    contribute nothing.  The merged body is re-sorted — ``M``-phase
    metadata first, then by ``ts`` — so out-of-order inputs still yield
    a Perfetto-loadable file with monotonic tracks.
    """
    merged: list[dict] = []
    used_pids: set[int] = set()
    sources: list[dict] = []
    for doc in docs:
        events = doc.get("traceEvents") or []
        other = doc.get("otherData") or {}
        sources.append(
            {"schema": other.get("schema"), "events": len(events)}
        )
        if not events:
            continue
        pids = sorted({int(e.get("pid", 0)) for e in events})
        mapping: dict[int, int] = {}
        for pid in pids:
            new = pid
            while new in used_pids:
                new = (max(used_pids) if used_pids else 0) + 1
            mapping[pid] = new
            used_pids.add(new)
        for e in events:
            out = dict(e)
            out["pid"] = mapping[int(e.get("pid", 0))]
            merged.append(out)
    merged.sort(key=lambda e: (0 if e.get("ph") == "M" else 1, e.get("ts", 0)))
    return {
        "traceEvents": merged,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": "repro-sweep-trace/1",
            "sources": sources,
        },
    }


def violation_trace(checker, label: str = "conformance window") -> dict:
    """Trace-event document of a checker's recent-event window.

    Ordinary protocol events become thread-scoped instants; violations
    become process-scoped instants (rendered prominently by Perfetto)
    carrying the full violation text in ``args``.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": f"repro conformance ({label})"},
        }
    ]
    for q in range(checker.nprocs):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": q,
                "args": {"name": f"P{q}"},
            }
        )
    body: list[dict] = []
    for t, proc, kind, detail in checker.window:
        ev = {
            "name": kind,
            "cat": "violation" if kind == "VIOLATION" else "protocol",
            "ph": "i",
            "s": "p" if kind == "VIOLATION" else "t",
            "pid": 0,
            "tid": proc,
            "ts": t * _US,
            "args": {"detail": detail},
        }
        body.append(ev)
    body.sort(key=lambda e: e["ts"])
    events.extend(body)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": "repro-conformance-trace/1",
            "violations": len(checker.violations),
            "window_events": len(checker.window),
        },
    }


#: Supervisor decision events rendered as instants on the owning track.
_INSTANT_KINDS = (
    "sweep_begin",
    "dispatch",
    "retry",
    "requeue",
    "timeout",
    "pool_kill",
    "pool_broken",
    "crash_quarantine",
    "cell_failure",
    "group_done",
    "checkpoint_shard",
    "resume_hit",
    "engine_counters",
    "sweep_end",
)


def _group_label(rec: dict) -> Optional[str]:
    if "workload" not in rec:
        return None
    return f"{rec['workload']}@{rec.get('procs', '?')}"


def runtime_chrome_doc(shards: list[dict]) -> dict:
    """Convert anchored shard blocks into one Chrome trace document."""
    events: list[dict] = []
    body: list[dict] = []
    if shards:
        t0_wall = min(s["wall0"] for s in shards)
    else:
        t0_wall = 0.0

    named: set[int] = set()
    for shard in shards:
        pid = shard["pid"]
        if pid not in named:
            named.add(pid)
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"{shard['role']} {pid}"},
                }
            )

    # (workload, procs, attempt) -> pending attempt_start (ts µs, pid)
    open_attempts: dict[tuple, tuple[float, int]] = {}
    # (workload, procs) -> dispatch timestamps (µs), for retry flows
    dispatches: dict[tuple, list[float]] = {}

    for shard in shards:
        pid = shard["pid"]
        base = shard["wall0"] - t0_wall
        for rec in shard["events"]:
            kind = rec.get("kind")
            ts = (base + float(rec.get("t", 0.0))) * _US
            label = _group_label(rec)
            gkey = (rec.get("workload"), rec.get("procs"))
            akey = gkey + (rec.get("attempt"),)
            args = {
                k: v
                for k, v in rec.items()
                if k not in ("kind", "pid", "t")
            }
            if kind == "attempt_start":
                open_attempts[akey] = (ts, pid)
                continue
            if kind == "attempt_finish":
                pending = open_attempts.pop(akey, None)
                if pending is None:
                    start = ts - float(rec.get("dur", 0.0)) * _US
                else:
                    start = pending[0]
                body.append(
                    {
                        "name": f"{label} attempt {rec.get('attempt', '?')}",
                        "cat": "attempt",
                        "ph": "X",
                        "pid": pid,
                        "tid": 0,
                        "ts": start,
                        "dur": max(ts - start, 0.0),
                        "args": args,
                    }
                )
                continue
            if kind in _INSTANT_KINDS:
                name = f"{kind} {label}" if label else kind
                body.append(
                    {
                        "name": name,
                        "cat": "engine" if kind == "engine_counters" else "runtime",
                        "ph": "i",
                        "s": "p",
                        "pid": pid,
                        "tid": 0,
                        "ts": ts,
                        "args": args,
                    }
                )
                if kind == "dispatch" and label is not None:
                    dispatches.setdefault(gkey, []).append(ts)

    # Attempts that started but never finished: the SIGKILLed workers.
    for akey, (ts, apid) in open_attempts.items():
        label = f"{akey[0]}@{akey[1]}"
        body.append(
            {
                "name": f"{label} attempt {akey[2]} (no finish)",
                "cat": "attempt",
                "ph": "i",
                "s": "p",
                "pid": apid,
                "tid": 0,
                "ts": ts,
                "args": {"workload": akey[0], "procs": akey[1], "attempt": akey[2]},
            }
        )

    # Flow arrows chaining the successive dispatches of retried groups.
    flow_id = 0
    for gkey, stamps in sorted(dispatches.items(), key=lambda kv: str(kv[0])):
        stamps.sort()
        for prev, nxt in zip(stamps, stamps[1:]):
            flow_id += 1
            name = f"retry {gkey[0]}@{gkey[1]}"
            body.append(
                {
                    "name": name,
                    "cat": "retry",
                    "ph": "s",
                    "id": flow_id,
                    "pid": _supervisor_pid(shards),
                    "tid": 0,
                    "ts": prev,
                }
            )
            body.append(
                {
                    "name": name,
                    "cat": "retry",
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "pid": _supervisor_pid(shards),
                    "tid": 0,
                    "ts": nxt,
                }
            )

    body.sort(key=lambda e: e["ts"])
    events.extend(body)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": "repro-sweep-trace/1",
            "shards": len(shards),
            "t0_wall": t0_wall,
        },
    }


def _supervisor_pid(shards: list[dict]) -> int:
    for shard in shards:
        if shard["role"] == "supervisor":
            return shard["pid"]
    return shards[0]["pid"] if shards else 0

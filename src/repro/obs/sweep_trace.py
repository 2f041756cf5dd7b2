"""Merge runtime-trace shards into one Perfetto-loadable sweep trace.

Loads every ``runtime-*.jsonl`` shard an observed sweep wrote into its
``--obs-dir`` (see :mod:`repro.obs.runtime`), converts the event stream
into Chrome ``trace_event`` form with the event builders of
:mod:`repro.obs.chrome_trace` — one **track per os pid** (supervisor
and each worker), attempt spans as complete (``ph: "X"``) events, the
supervisor's dispatch/retry/timeout/quarantine/failure decisions as
instant events, and **flow events linking the successive dispatches of
a retried group** — then folds in any per-cell Chrome traces
(``*.trace.json``) found in the same directory via
:func:`~repro.obs.chrome_trace.merge_chrome_traces`.

Shards from different processes are aligned on their wall-clock header
anchors: the merged timeline's origin is the earliest ``wall0`` of any
shard, and every event lands at ``wall0 + t`` relative to it, so
supervisor decisions and the worker attempts they caused line up on
screen.  Exposed as ``repro sweep --obs-dir DIR`` (auto-merge on exit)
and ``repro obs merge --obs-dir DIR``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional

from .chrome_trace import (
    SWEEP_TRACE_SCHEMA,
    US,
    flow,
    instant,
    merge_chrome_traces,
    process_name,
    span,
    trace_document,
    write_trace,
)
from .runtime import SHARD_GLOB

__all__ = [
    "load_runtime_shards",
    "merge_obs_dir",
    "runtime_chrome_doc",
    "write_sweep_trace",
]

#: Supervisor decision events rendered as instants on the owning track.
_INSTANT_KINDS = (
    "sweep_begin", "dispatch", "retry", "requeue", "timeout", "pool_kill",
    "pool_broken", "crash_quarantine", "cell_failure", "group_done",
    "checkpoint_shard", "resume_hit", "engine_counters", "sweep_end",
)


def load_runtime_shards(directory) -> list[dict]:
    """Parse every shard in ``directory`` into anchored event blocks.

    Returns one ``{"role", "pid", "wall0", "events"}`` block per header
    record — a shard re-opened by a surviving process yields several
    blocks, each carrying the anchors current when its events were
    written.  Truncated trailing lines (a worker SIGKILLed mid-write)
    and events preceding a header (clock anchors lost) are dropped.
    """
    blocks: list[dict] = []
    for path in sorted(pathlib.Path(directory).glob(SHARD_GLOB)):
        current: Optional[dict] = None
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if rec.get("kind") == "header":
                    current = {
                        "role": rec.get("role", "worker"),
                        "pid": int(rec.get("pid", 0)),
                        "wall0": float(rec.get("wall0", 0.0)),
                        "events": [],
                    }
                    blocks.append(current)
                elif current is not None:
                    current["events"].append(rec)
    return blocks


def _group_label(rec: dict) -> Optional[str]:
    if "workload" not in rec:
        return None
    return f"{rec['workload']}@{rec.get('procs', '?')}"


def runtime_chrome_doc(shards: list[dict]) -> dict:
    """Convert anchored shard blocks into one Chrome trace document."""
    t0_wall = min((s["wall0"] for s in shards), default=0.0)
    roles: dict[int, str] = {}
    for shard in shards:
        roles.setdefault(shard["pid"], shard["role"])
    events = [process_name(pid, f"{role} {pid}") for pid, role in roles.items()]

    # (workload, procs, attempt) -> pending attempt_start (ts µs, pid)
    open_attempts: dict[tuple, tuple[float, int]] = {}
    # (workload, procs) -> dispatch timestamps (µs), for retry flows
    dispatches: dict[tuple, list[float]] = {}

    for shard in shards:
        pid = shard["pid"]
        base = shard["wall0"] - t0_wall
        for rec in shard["events"]:
            kind = rec.get("kind")
            ts = (base + float(rec.get("t", 0.0))) * US
            label = _group_label(rec)
            gkey = (rec.get("workload"), rec.get("procs"))
            akey = gkey + (rec.get("attempt"),)
            args = {k: v for k, v in rec.items() if k not in ("kind", "pid", "t")}
            if kind == "attempt_start":
                open_attempts[akey] = (ts, pid)
            elif kind == "attempt_finish":
                # a lost start is rebuilt from the finish's duration
                start = open_attempts.pop(
                    akey, (ts - float(rec.get("dur", 0.0)) * US, pid))[0]
                events.append(span(
                    f"{label} attempt {rec.get('attempt', '?')}", "attempt",
                    pid, 0, start, max(ts - start, 0.0), args,
                ))
            elif kind in _INSTANT_KINDS:
                events.append(instant(
                    f"{kind} {label}" if label else kind,
                    "engine" if kind == "engine_counters" else "runtime",
                    pid, 0, ts, args, scope="p",
                ))
                if kind == "dispatch" and label is not None:
                    dispatches.setdefault(gkey, []).append(ts)

    # Attempts that started but never finished: the SIGKILLed workers.
    for (workload, procs, attempt), (ts, pid) in open_attempts.items():
        events.append(instant(
            f"{workload}@{procs} attempt {attempt} (no finish)", "attempt",
            pid, 0, ts,
            {"workload": workload, "procs": procs, "attempt": attempt},
            scope="p",
        ))

    # Flow arrows chaining the successive dispatches of retried groups.
    sup = next((s["pid"] for s in shards if s["role"] == "supervisor"),
               shards[0]["pid"] if shards else 0)
    flow_id = 0
    for gkey, stamps in sorted(dispatches.items(), key=lambda kv: str(kv[0])):
        stamps.sort()
        for prev, nxt in zip(stamps, stamps[1:]):
            flow_id += 1
            events += flow(f"retry {gkey[0]}@{gkey[1]}", "retry", flow_id,
                           (sup, 0, prev), (sup, 0, nxt))

    return trace_document(events, SWEEP_TRACE_SCHEMA, shards=len(shards),
                          t0_wall=t0_wall)


def merge_obs_dir(directory) -> dict:
    """Merge an ``--obs-dir`` into one Perfetto-loadable document.

    Folds the runtime-trace shards together with any per-cell Chrome
    traces (``*.trace.json``, as written by ``repro trace``) dropped in
    the same directory.
    """
    return _merge(load_runtime_shards(directory), directory)


def _merge(blocks: list[dict], directory) -> dict:
    docs = [runtime_chrome_doc(blocks)]
    for path in sorted(pathlib.Path(directory).glob("*.trace.json")):
        try:
            with open(path) as fh:
                docs.append(json.load(fh))
        except (json.JSONDecodeError, OSError):
            continue
    return merge_chrome_traces(docs)


def write_sweep_trace(directory, path: Optional[str] = None) -> str:
    """Merge ``directory`` and write the trace; returns the output path.

    Raises ``ValueError`` naming ``directory``, and writes nothing, when
    it holds no runtime-trace shard."""
    blocks = load_runtime_shards(directory)
    if not blocks:
        raise ValueError(f"{directory}: no runtime-trace shards")
    out = str(path) if path else str(pathlib.Path(directory) / "sweep_trace.json")
    write_trace(_merge(blocks, directory), out)
    return out
"""Structured cross-process tracing for the sweep runtime.

The supervised sweep executor (:mod:`repro.experiments.runtime`) and its
worker processes each append events to their own JSONL *shard* file
(schema ``repro-runtime-trace/1``) — group dispatch, attempt start and
finish, retry with backoff, timeout, pool teardown, crash quarantine,
structured cell failures, checkpoint shard commits, resume cache hits
and engine introspection counters.  One shard per process means the
files are append-only with no cross-process locking; the merger
(:mod:`repro.obs.sweep_trace`) folds all shards into a single
Perfetto-loadable trace with one track per pid.

Clock discipline
----------------
Every event timestamp is a **monotonic-clock offset** (``t`` seconds
since the shard was opened); the shard *header* carries a single
wall-clock anchor (``wall0``) so the merger can align shards from
different processes (``wall = wall0 + t``).  ``tools/lint_rules.py``
(rule ``wallclock-span``) forbids ``time.time()``/``datetime.now()``
everywhere else under ``src/repro/`` — this module and the supervised
runtime are the only places allowed to touch the wall clock.

Cost discipline
---------------
Tracing is strictly opt-in: the supervised executor takes
``tracer=None`` by default and every emit site is guarded by an
``is None`` test, so a sweep without ``--obs-dir`` performs **zero**
extra syscalls on the hot path and its CSV stays byte-identical.

The module also holds the shared progress/summary helpers: the
``--progress`` live ticker (:class:`SweepProgress`) consumes exactly
the same event stream as the JSONL tracer, and the final stderr summary
(:func:`status_counts` / :func:`format_summary`) is the single source
of truth the CLI uses whether or not observability is on.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time
from typing import Optional, Sequence, TextIO

__all__ = [
    "RUNTIME_TRACE_SCHEMA",
    "SHARD_GLOB",
    "MultiSink",
    "RuntimeTracer",
    "SweepProgress",
    "format_summary",
    "status_counts",
]

#: Runtime-trace schema identifier, written into every shard header.
RUNTIME_TRACE_SCHEMA = "repro-runtime-trace/1"

#: Glob matching the shard files of one observability directory.
SHARD_GLOB = "runtime-*.jsonl"


class RuntimeTracer:
    """Append-only JSONL event writer for one process.

    Each instance owns one shard file named
    ``runtime-<role>-<pid>.jsonl``; opening the tracer appends a header
    record carrying the schema, role, pid and the monotonic/wall clock
    anchors.  Re-opening the same path (a worker process surviving
    across sweeps, or a recycled pid) appends a fresh header — the
    merger processes headers in sequence, so every event is interpreted
    under the anchors that were current when it was written.

    Events are flushed line-by-line: a SIGKILLed worker loses at most
    the event it was writing, never the shard.
    """

    def __init__(self, directory: str | os.PathLike, role: str = "supervisor"):
        self.dir = pathlib.Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.role = role
        self.pid = os.getpid()
        self.path = self.dir / f"runtime-{role}-{self.pid}.jsonl"
        self._mono0 = time.monotonic()
        self._fh: Optional[TextIO] = open(self.path, "a")
        header = {
            "kind": "header",
            "schema": RUNTIME_TRACE_SCHEMA,
            "role": role,
            "pid": self.pid,
            "wall0": time.time(),
        }
        self._write(header)

    def _write(self, rec: dict) -> None:
        fh = self._fh
        if fh is None:  # pragma: no cover - emit after close is a no-op
            return
        fh.write(json.dumps(rec, sort_keys=True) + "\n")
        fh.flush()

    def emit(
        self,
        kind: str,
        group: Optional[tuple[str, int]] = None,
        attempt: Optional[int] = None,
        **fields,
    ) -> None:
        """Append one event.  ``t`` is seconds since the shard header's
        monotonic anchor; ``group`` expands to ``workload``/``procs``."""
        rec: dict = {
            "kind": kind,
            "pid": self.pid,
            "t": round(time.monotonic() - self._mono0, 6),
        }
        if group is not None:
            rec["workload"] = group[0]
            rec["procs"] = int(group[1])
        if attempt is not None:
            rec["attempt"] = int(attempt)
        rec.update(fields)
        self._write(rec)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RuntimeTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MultiSink:
    """Fan one event stream out to several sinks (tracer + ticker)."""

    def __init__(self, sinks: Sequence):
        self.sinks = list(sinks)

    def emit(self, kind: str, group=None, attempt=None, **fields) -> None:
        for sink in self.sinks:
            sink.emit(kind, group=group, attempt=attempt, **fields)

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


def status_counts(records) -> dict[str, int]:
    """Per-status cell counts of a finished sweep.

    Healthy cells (``status is None``) count as ``"ok"``; failed cells
    count under their structured status (``"timeout"``/``"crashed"``/
    ``"error"``).  This is the one source of truth for the CLI summary
    and the progress ticker's final line.
    """
    counts: dict[str, int] = {}
    for r in records:
        key = r.status if getattr(r, "status", None) is not None else "ok"
        counts[key] = counts.get(key, 0) + 1
    return counts


def format_summary(counts: dict[str, int], elapsed_s: float) -> str:
    """One-line sweep summary: per-status cell counts + wall clock."""
    total = sum(counts.values())
    order = sorted(counts, key=lambda k: (k != "ok", k))
    parts = ", ".join(f"{counts[k]} {k}" for k in order)
    return f"sweep: {total} cells ({parts}) in {elapsed_s:.1f}s"


class SweepProgress:
    """Live stderr ticker driven by the runtime-trace event stream.

    Tracks each (workload, procs) group through the supervisor's events
    — ``dispatch`` → running, ``retry``/``requeue``/``crash_quarantine``
    → retrying, ``group_done`` → done, ``cell_failure`` → failed — and
    redraws a single carriage-returned status line on every event.  The
    ``sweep_end`` event terminates the line and prints the same
    :func:`format_summary` text the CLI uses without ``--progress``.
    """

    def __init__(self, total: int, stream: Optional[TextIO] = None):
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self._state: dict[tuple[str, int], str] = {}
        self._line_open = False

    def _counts(self) -> dict[str, int]:
        out = {"done": 0, "running": 0, "retrying": 0, "failed": 0}
        for state in self._state.values():
            out[state] += 1
        return out

    def emit(self, kind: str, group=None, attempt=None, **fields) -> None:
        if group is not None:
            key = (group[0], int(group[1]))
            if kind == "dispatch":
                self._state[key] = "running"
            elif kind in ("retry", "requeue", "crash_quarantine"):
                self._state[key] = "retrying"
            elif kind == "group_done":
                self._state[key] = "done"
            elif kind == "cell_failure":
                self._state[key] = "failed"
            elif kind == "resume_hit":
                self._state[key] = "done"
        if kind == "sweep_end":
            self._finish(fields)
            return
        if kind in (
            "dispatch", "retry", "requeue", "crash_quarantine",
            "group_done", "cell_failure", "resume_hit",
        ):
            self._redraw()

    def _redraw(self) -> None:
        c = self._counts()
        line = (
            f"sweep: {c['done']}/{self.total} groups done, "
            f"{c['running']} running, {c['retrying']} retrying, "
            f"{c['failed']} failed"
        )
        self.stream.write("\r" + line.ljust(72))
        self.stream.flush()
        self._line_open = True

    def _finish(self, fields: dict) -> None:
        if self._line_open:
            self.stream.write("\n")
            self._line_open = False
        counts = fields.get("counts")
        elapsed = fields.get("elapsed")
        if counts is not None and elapsed is not None:
            self.stream.write(format_summary(counts, float(elapsed)) + "\n")
        self.stream.flush()

    def close(self) -> None:
        if self._line_open:  # pragma: no cover - defensive (no sweep_end)
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False

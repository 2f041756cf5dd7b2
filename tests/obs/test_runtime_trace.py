"""Unit tests for the runtime tracer and the progress/summary helpers
(:mod:`repro.obs.runtime`)."""

import io
import json
import os
from types import SimpleNamespace

from repro.obs.runtime import (
    RUNTIME_TRACE_SCHEMA,
    MultiSink,
    RuntimeTracer,
    SweepProgress,
    format_summary,
    status_counts,
)


def read_shard(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestRuntimeTracer:
    def test_header_then_events(self, tmp_path):
        with RuntimeTracer(tmp_path, role="supervisor") as tr:
            tr.emit("dispatch", group=("chol15", 4), attempt=1, timeout=30.0)
            tr.emit("sweep_end", counts={"ok": 3}, elapsed=1.25)
        records = read_shard(tr.path)
        header, dispatch, end = records
        assert header["kind"] == "header"
        assert header["schema"] == RUNTIME_TRACE_SCHEMA
        assert header["role"] == "supervisor"
        assert header["pid"] == os.getpid()
        assert header["wall0"] > 0
        assert dispatch["kind"] == "dispatch"
        assert dispatch["workload"] == "chol15"
        assert dispatch["procs"] == 4
        assert dispatch["attempt"] == 1
        assert dispatch["timeout"] == 30.0
        assert dispatch["t"] >= 0.0
        assert end["counts"] == {"ok": 3}

    def test_shard_name_carries_role_and_pid(self, tmp_path):
        tr = RuntimeTracer(tmp_path, role="worker")
        tr.close()
        assert tr.path.name == f"runtime-worker-{os.getpid()}.jsonl"

    def test_reopen_appends_fresh_header(self, tmp_path):
        # A worker process surviving across sweeps re-opens its shard;
        # the merger must see a new anchor for the new events.
        with RuntimeTracer(tmp_path, role="worker") as tr:
            tr.emit("attempt_start", group=("g", 2), attempt=1)
        with RuntimeTracer(tmp_path, role="worker") as tr2:
            tr2.emit("attempt_start", group=("g", 2), attempt=2)
        assert tr2.path == tr.path
        kinds = [r["kind"] for r in read_shard(tr.path)]
        assert kinds == ["header", "attempt_start", "header", "attempt_start"]

    def test_timestamps_are_monotonic_offsets(self, tmp_path):
        with RuntimeTracer(tmp_path) as tr:
            tr.emit("a")
            tr.emit("b")
        _, a, b = read_shard(tr.path)
        assert 0.0 <= a["t"] <= b["t"]


class _Recorder:
    def __init__(self):
        self.events = []
        self.closed = False

    def emit(self, kind, group=None, attempt=None, **fields):
        self.events.append((kind, group, attempt, fields))

    def close(self):
        self.closed = True


class TestMultiSink:
    def test_fans_out_emit_and_close(self):
        a, b = _Recorder(), _Recorder()
        sink = MultiSink([a, b])
        sink.emit("dispatch", group=("g", 2), attempt=1, timeout=5.0)
        sink.close()
        assert a.events == b.events == [
            ("dispatch", ("g", 2), 1, {"timeout": 5.0})
        ]
        assert a.closed and b.closed

    def test_sinks_without_close_are_tolerated(self):
        class Bare:
            def emit(self, kind, group=None, attempt=None, **fields):
                pass

        MultiSink([Bare()]).close()  # must not raise


class TestSummaryHelpers:
    def test_status_counts_maps_none_to_ok(self):
        records = [
            SimpleNamespace(status=None),
            SimpleNamespace(status=None),
            SimpleNamespace(status="timeout"),
            SimpleNamespace(status="crashed"),
        ]
        assert status_counts(records) == {"ok": 2, "timeout": 1, "crashed": 1}

    def test_format_summary_orders_ok_first(self):
        line = format_summary({"timeout": 1, "ok": 3, "crashed": 2}, 12.34)
        assert line == "sweep: 6 cells (3 ok, 2 crashed, 1 timeout) in 12.3s"

    def test_all_healthy(self):
        assert format_summary({"ok": 4}, 0.5) == "sweep: 4 cells (4 ok) in 0.5s"


class TestSweepProgress:
    def drive(self, events, total=2):
        out = io.StringIO()
        prog = SweepProgress(total=total, stream=out)
        for kind, group, fields in events:
            prog.emit(kind, group=group, **fields)
        prog.close()
        return out.getvalue()

    def test_lifecycle_to_done(self):
        text = self.drive([
            ("dispatch", ("a", 2), {}),
            ("dispatch", ("b", 4), {}),
            ("group_done", ("a", 2), {}),
            ("group_done", ("b", 4), {}),
            ("sweep_end", None, {"counts": {"ok": 8}, "elapsed": 2.0}),
        ])
        # The last redraw shows both groups done, then the final summary
        # (the same format_summary text the CLI prints without a ticker).
        assert "2/2 groups done" in text
        assert text.rstrip().endswith("sweep: 8 cells (8 ok) in 2.0s")

    def test_retry_and_failure_states(self):
        text = self.drive([
            ("dispatch", ("a", 2), {}),
            ("retry", ("a", 2), {"delay": 0.1}),
            ("dispatch", ("a", 2), {}),
            ("cell_failure", ("a", 2), {"status": "timeout"}),
        ], total=1)
        assert "1 retrying" in text
        assert "1 failed" in text

    def test_resume_hit_counts_as_done(self):
        text = self.drive([
            ("resume_hit", ("a", 2), {"records": 4}),
        ], total=1)
        assert "1/1 groups done" in text

    def test_crash_quarantine_marks_retrying(self):
        text = self.drive([
            ("dispatch", ("a", 2), {}),
            ("crash_quarantine", ("a", 2), {}),
        ], total=1)
        assert "1 retrying" in text

    def test_unknown_kinds_do_not_redraw(self):
        out = io.StringIO()
        prog = SweepProgress(total=1, stream=out)
        prog.emit("engine_counters", counters={"plan_hits": 3})
        prog.emit("checkpoint_shard", group=("a", 2), records=4)
        assert out.getvalue() == ""
        prog.close()

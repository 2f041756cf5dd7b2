"""Tests for the sweep-trace merger: multi-document Chrome-trace
merging (:func:`repro.obs.merge_chrome_traces`) and the runtime-shard
to Perfetto conversion (:mod:`repro.obs.sweep_trace`)."""

import json

import pytest
import reference_traces
from tracecheck import flow_pairs

from repro.graph.paper_example import schedule_b, schedule_c
from repro.machine import CRAY_T3D, simulate
from repro.obs import chrome_trace, merge_chrome_traces
from repro.obs.sweep_trace import (
    load_runtime_shards,
    merge_obs_dir,
    runtime_chrome_doc,
    write_sweep_trace,
)


def doc(events, schema="test"):
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": schema},
    }


def ev(name, pid=0, ts=0.0, ph="X", **extra):
    return {"name": name, "ph": ph, "pid": pid, "tid": 0, "ts": ts, **extra}


class TestMergeChromeTraces:
    def test_pid_collisions_are_remapped(self):
        # Two per-cell traces both use pid 0; the merged trace must keep
        # them on distinct tracks.
        a = doc([ev("a1", pid=0, ts=1.0), ev("a2", pid=0, ts=2.0)])
        b = doc([ev("b1", pid=0, ts=1.5)])
        merged = merge_chrome_traces([a, b])
        by_name = {e["name"]: e["pid"] for e in merged["traceEvents"]}
        assert by_name["a1"] == by_name["a2"]
        assert by_name["a1"] != by_name["b1"]

    def test_remapping_is_injective_within_a_doc(self):
        # A doc whose own pids straddle an already-taken id must not
        # fold two of its tracks into one.
        a = doc([ev("a", pid=1, ts=0.0)])
        b = doc([ev("b0", pid=0, ts=0.0), ev("b1", pid=1, ts=0.0),
                 ev("b2", pid=2, ts=0.0)])
        merged = merge_chrome_traces([a, b])
        b_pids = [e["pid"] for e in merged["traceEvents"]
                  if e["name"].startswith("b")]
        assert len(set(b_pids)) == 3

    def test_empty_docs_are_tolerated(self):
        merged = merge_chrome_traces([doc([]), doc([ev("x")]), {}])
        assert [e["name"] for e in merged["traceEvents"]] == ["x"]
        # ...but still accounted for in the provenance list.
        assert len(merged["otherData"]["sources"]) == 3

    def test_out_of_order_timestamps_are_sorted(self):
        a = doc([ev("late", ts=5.0), ev("early", ts=1.0)])
        b = doc([ev("mid", ts=3.0),
                 ev("meta", ph="M", ts=0.0, args={"name": "w"})])
        merged = merge_chrome_traces([a, b])
        names = [e["name"] for e in merged["traceEvents"]]
        # Metadata first, then strictly by ts.
        assert names == ["meta", "early", "mid", "late"]
        ts = [e["ts"] for e in merged["traceEvents"] if e["ph"] != "M"]
        assert ts == sorted(ts)

    def test_result_is_valid_trace_json(self):
        merged = merge_chrome_traces([doc([ev("x")])])
        text = json.dumps(merged)
        back = json.loads(text)
        assert back["displayTimeUnit"] == "ms"
        assert back["otherData"]["schema"] == "repro-sweep-trace/1"
        assert all("ph" in e and "pid" in e for e in back["traceEvents"])


    def test_flow_ids_are_renumbered_per_document(self):
        # Both per-cell traces number their puts from 0: without
        # renumbering, 5 of the 10 put-flow keys of the merge would be
        # claimed by two starts and two ends.
        docs = [
            chrome_trace(simulate(s(), spec=CRAY_T3D, capacity=10,
                                  metrics=True))
            for s in (schedule_b, schedule_c)
        ]
        merged = merge_chrome_traces(docs)
        pairs = flow_pairs(merged)
        assert len(pairs) == sum(len(flow_pairs(d)) for d in docs) == 10
        for key, flow in pairs.items():
            assert [e["ph"] for e in flow] == ["s", "f"], key
            assert flow[1]["ts"] >= flow[0]["ts"], key
        # ...and the flow ids are all the merge changes.
        reference = reference_traces.merge_chrome_traces(docs)
        strip = [{k: v for k, v in e.items() if k != "id"}
                 for e in merged["traceEvents"]]
        assert strip == [{k: v for k, v in e.items() if k != "id"}
                         for e in reference["traceEvents"]]
        assert merged["otherData"] == reference["otherData"]


def shard(role, pid, wall0, events):
    return {"role": role, "pid": pid, "wall0": wall0, "events": events}


class TestRuntimeChromeDoc:
    def test_attempt_span_from_start_finish_pair(self):
        doc = runtime_chrome_doc([
            shard("worker", 7, 100.0, [
                {"kind": "attempt_start", "t": 0.5, "workload": "g",
                 "procs": 2, "attempt": 1},
                {"kind": "attempt_finish", "t": 1.5, "workload": "g",
                 "procs": 2, "attempt": 1, "status": "ok", "dur": 1.0},
            ]),
        ])
        (span,) = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert span["name"] == "g@2 attempt 1"
        assert span["pid"] == 7
        assert span["ts"] == 0.5 * 1e6
        assert span["dur"] == 1.0 * 1e6
        assert span["args"]["status"] == "ok"

    def test_unfinished_attempt_becomes_instant(self):
        # A SIGKILLed worker leaves attempt_start with no finish.
        doc = runtime_chrome_doc([
            shard("worker", 9, 100.0, [
                {"kind": "attempt_start", "t": 0.1, "workload": "g",
                 "procs": 4, "attempt": 2},
            ]),
        ])
        (inst,) = [e for e in doc["traceEvents"] if e.get("ph") == "i"]
        assert inst["name"] == "g@4 attempt 2 (no finish)"
        assert inst["pid"] == 9

    def test_wall0_aligns_shards_cross_process(self):
        # Supervisor opened 2s before the worker: a worker event at
        # t=0 must land 2s into the merged timeline.
        doc = runtime_chrome_doc([
            shard("supervisor", 1, 100.0, [
                {"kind": "dispatch", "t": 0.0, "workload": "g",
                 "procs": 2, "attempt": 1},
            ]),
            shard("worker", 2, 102.0, [
                {"kind": "attempt_start", "t": 0.0, "workload": "g",
                 "procs": 2, "attempt": 1},
                {"kind": "attempt_finish", "t": 1.0, "workload": "g",
                 "procs": 2, "attempt": 1, "dur": 1.0},
            ]),
        ])
        span = next(e for e in doc["traceEvents"] if e.get("ph") == "X")
        disp = next(e for e in doc["traceEvents"]
                    if e["name"].startswith("dispatch"))
        assert disp["ts"] == 0.0
        assert span["ts"] == 2.0 * 1e6

    def test_retry_dispatches_are_linked_by_flow(self):
        doc = runtime_chrome_doc([
            shard("supervisor", 1, 100.0, [
                {"kind": "dispatch", "t": 0.0, "workload": "g",
                 "procs": 2, "attempt": 1},
                {"kind": "retry", "t": 1.0, "workload": "g",
                 "procs": 2, "attempt": 1, "status": "error"},
                {"kind": "dispatch", "t": 2.0, "workload": "g",
                 "procs": 2, "attempt": 2},
            ]),
        ])
        flows = [e for e in doc["traceEvents"] if e.get("cat") == "retry"
                 and e.get("ph") in ("s", "f")]
        assert {e["ph"] for e in flows} == {"s", "f"}
        (s,) = [e for e in flows if e["ph"] == "s"]
        (f,) = [e for e in flows if e["ph"] == "f"]
        assert s["id"] == f["id"]
        assert s["ts"] == 0.0 and f["ts"] == 2.0 * 1e6

    def test_per_pid_tracks_are_named(self):
        doc = runtime_chrome_doc([
            shard("supervisor", 1, 100.0, []),
            shard("worker", 2, 100.0, []),
        ])
        names = {e["pid"]: e["args"]["name"]
                 for e in doc["traceEvents"] if e["ph"] == "M"}
        assert names == {1: "supervisor 1", 2: "worker 2"}

    def test_empty_shards(self):
        doc = runtime_chrome_doc([])
        assert doc["traceEvents"] == []
        assert doc["otherData"]["shards"] == 0


class TestLoadRuntimeShards:
    def write(self, tmp_path, name, lines):
        (tmp_path / name).write_text("".join(
            (json.dumps(rec) if isinstance(rec, dict) else rec) + "\n"
            for rec in lines
        ))

    def test_truncated_and_preheader_lines_are_dropped(self, tmp_path):
        self.write(tmp_path, "runtime-worker-5.jsonl", [
            {"kind": "attempt_start", "t": 0.0},  # pre-header: no anchor
            {"kind": "header", "schema": "repro-runtime-trace/1",
             "role": "worker", "pid": 5, "wall0": 10.0},
            {"kind": "dispatch", "t": 0.1},
            '{"kind": "attempt_fini',  # SIGKILL mid-write
        ])
        (block,) = load_runtime_shards(tmp_path)
        assert block["pid"] == 5
        assert [e["kind"] for e in block["events"]] == ["dispatch"]

    def test_reopened_shard_yields_two_blocks(self, tmp_path):
        self.write(tmp_path, "runtime-worker-5.jsonl", [
            {"kind": "header", "role": "worker", "pid": 5, "wall0": 10.0},
            {"kind": "a", "t": 0.0},
            {"kind": "header", "role": "worker", "pid": 5, "wall0": 20.0},
            {"kind": "b", "t": 0.0},
        ])
        blocks = load_runtime_shards(tmp_path)
        assert [b["wall0"] for b in blocks] == [10.0, 20.0]
        assert [b["events"][0]["kind"] for b in blocks] == ["a", "b"]

    def test_only_runtime_shards_are_read(self, tmp_path):
        self.write(tmp_path, "notes.jsonl", [{"kind": "header"}])
        assert load_runtime_shards(tmp_path) == []


class TestMergeObsDir:
    def test_folds_shards_and_cell_traces(self, tmp_path):
        (tmp_path / "runtime-supervisor-1.jsonl").write_text(
            json.dumps({"kind": "header", "role": "supervisor", "pid": 1,
                        "wall0": 100.0}) + "\n"
            + json.dumps({"kind": "dispatch", "t": 0.0, "workload": "g",
                          "procs": 2, "attempt": 1}) + "\n"
        )
        (tmp_path / "cell.trace.json").write_text(json.dumps(
            doc([ev("task A", pid=0, ts=1.0)], schema="repro-trace/1")
        ))
        merged = merge_obs_dir(tmp_path)
        names = [e["name"] for e in merged["traceEvents"]]
        assert any(n.startswith("dispatch") for n in names)
        assert "task A" in names
        # Two sources: the runtime doc and the cell trace.
        assert len(merged["otherData"]["sources"]) == 2

    def test_corrupt_cell_trace_is_skipped(self, tmp_path):
        (tmp_path / "bad.trace.json").write_text("{not json")
        merged = merge_obs_dir(tmp_path)
        assert merged["traceEvents"] == []

    def test_write_sweep_trace_roundtrip(self, tmp_path):
        (tmp_path / "runtime-supervisor-1.jsonl").write_text(
            json.dumps({"kind": "header", "role": "supervisor", "pid": 1,
                        "wall0": 100.0}) + "\n"
            + json.dumps({"kind": "sweep_end", "t": 1.0,
                          "counts": {"ok": 2}, "elapsed": 1.0}) + "\n"
        )
        out = write_sweep_trace(tmp_path)
        assert out.endswith("sweep_trace.json")
        back = json.loads(open(out).read())
        assert back["otherData"]["schema"] == "repro-sweep-trace/1"
        assert any(e["name"] == "sweep_end" for e in back["traceEvents"])

    def test_write_sweep_trace_refuses_a_dir_without_shards(self, tmp_path):
        """Cell traces alone are no sweep: the error names the directory
        and nothing is written."""
        (tmp_path / "cell.trace.json").write_text(json.dumps(
            doc([ev("task A", pid=0, ts=1.0)], schema="repro-trace/1")
        ))
        with pytest.raises(ValueError, match="no runtime-trace shards"):
            write_sweep_trace(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["cell.trace.json"]

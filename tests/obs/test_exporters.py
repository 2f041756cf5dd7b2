"""Exporters: metrics JSON, Chrome trace_event JSON, HTML report,
and the trace rendering of :class:`~repro.machine.simulator.SimResult`.

Every trace document the package builds passes one structural check
(:func:`tracecheck.assert_valid_trace`), and each builder returns a
document equal to the frozen reference of :mod:`reference_traces`.
"""

import collections
import json

import pytest
import reference_traces
from tracecheck import assert_valid_trace, flow_pairs

from repro.conformance import check_batch, violation_trace
from repro.conformance.check import overwrite_demo
from repro.graph.paper_example import schedule_b, schedule_c
from repro.machine import CRAY_T3D, UNIT_MACHINE, simulate
from repro.obs import (
    METRICS_SCHEMA,
    build_metrics,
    chrome_trace,
    from_json,
    html_report,
    load_runtime_shards,
    merge_obs_dir,
    runtime_chrome_doc,
    to_json,
    write_chrome_trace,
)


@pytest.fixture(scope="module")
def res():
    return simulate(
        schedule_c(), spec=CRAY_T3D, capacity=8, metrics=True, trace=True
    )


# -- metrics JSON -------------------------------------------------------


def test_metrics_doc_schema_and_roundtrip(res):
    m = res.metrics
    assert m["schema"] == METRICS_SCHEMA
    text = to_json(m)
    assert from_json(text) == json.loads(text)
    # every value is JSON-native: a dump/load round-trip is exact
    assert json.loads(text) == m


def test_metrics_rejects_wrong_schema(res):
    bad = dict(res.metrics, schema="repro-metrics/999")
    with pytest.raises(ValueError, match="schema"):
        from_json(json.dumps(bad))
    with pytest.raises(ValueError, match="schema"):
        from_json("{}")


def test_metrics_to_json_writes_file(res, tmp_path):
    p = tmp_path / "metrics.json"
    text = to_json(res.metrics, str(p))
    assert p.read_text() == text
    assert from_json(p.read_text())["parallel_time"] == res.parallel_time


def test_build_metrics_matches_result_metrics(res):
    rebuilt = build_metrics(res, res.telemetry)
    assert rebuilt == res.metrics


def test_per_proc_residency_fields(res):
    for r in res.metrics["per_proc"]:
        assert sum(r["residency"].values()) == pytest.approx(
            res.parallel_time, abs=1e-9
        )
        assert sum(r["residency_frac"].values()) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= r["map_overhead_frac"] <= 1.0


# -- Chrome trace -------------------------------------------------------


def test_chrome_trace_required_fields(res):
    doc = chrome_trace(res)
    assert doc["otherData"]["schema"] == "repro-chrome-trace/1"
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert {"M", "X"} <= phases  # metadata + duration slices always exist


def test_chrome_trace_tracks_cover_processors(res):
    events = chrome_trace(res)["traceEvents"]
    thread_names = {
        e["tid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    nprocs = len(res.stats)
    assert set(thread_names) == set(range(nprocs))
    assert thread_names[0] == "P0"


def test_chrome_trace_flow_events_pair_up(res):
    # one flow per put, from the sender's track to the receiver's
    pairs = flow_pairs(chrome_trace(res))
    puts = res.telemetry.timeline.puts
    assert len(pairs) == len(puts) > 0
    for i, (_t_send, _t_arrive, src, dest, obj) in enumerate(puts):
        start, end = pairs[("put", f"put {obj}", i)]
        assert (start["tid"], end["tid"]) == (src, dest)


# One runtime sweep as its shards hold it: a supervisor, a worker that
# finished its attempt, one SIGKILLed mid-attempt (no finish) and the
# retry's worker, which also logged a finish whose start was lost.
SHARDS = {
    "runtime-supervisor-100.jsonl": [
        {"kind": "header", "role": "supervisor", "pid": 100,
         "wall0": 1760000000.125},
        {"kind": "sweep_begin", "t": 0.0, "groups": 3},
        {"kind": "dispatch", "t": 0.0104, "workload": "chol15", "procs": 2,
         "attempt": 1},
        {"kind": "dispatch", "t": 0.0109, "workload": "chol15", "procs": 4,
         "attempt": 1},
        {"kind": "pool_broken", "t": 0.5211},
        {"kind": "retry", "t": 0.5212, "workload": "chol15", "procs": 4,
         "attempt": 1, "status": "crash"},
        {"kind": "dispatch", "t": 0.5219, "workload": "chol15", "procs": 4,
         "attempt": 2},
        {"kind": "group_done", "t": 0.6931, "workload": "chol15",
         "procs": 2},
        {"kind": "group_done", "t": 1.3007, "workload": "chol15",
         "procs": 4},
        {"kind": "sweep_end", "t": 1.3102, "counts": {"ok": 3},
         "elapsed": 1.3102},
    ],
    "runtime-worker-201.jsonl": [
        {"kind": "header", "role": "worker", "pid": 201,
         "wall0": 1760000000.1372},
        {"kind": "attempt_start", "t": 0.0001, "workload": "chol15",
         "procs": 2, "attempt": 1},
        {"kind": "engine_counters", "t": 0.5177, "workload": "chol15",
         "procs": 2, "attempt": 1, "plan_hits": 3},
        {"kind": "attempt_finish", "t": 0.5189, "workload": "chol15",
         "procs": 2, "attempt": 1, "status": "ok", "dur": 0.5188},
    ],
    "runtime-worker-202.jsonl": [
        {"kind": "header", "role": "worker", "pid": 202,
         "wall0": 1760000000.1391},
        {"kind": "attempt_start", "t": 0.0002, "workload": "chol15",
         "procs": 4, "attempt": 1},
    ],
    "runtime-worker-203.jsonl": [
        {"kind": "header", "role": "worker", "pid": 203,
         "wall0": 1760000000.6470},
        {"kind": "attempt_start", "t": 0.0003, "workload": "chol15",
         "procs": 4, "attempt": 2},
        {"kind": "attempt_finish", "t": 0.6101, "workload": "chol15",
         "procs": 4, "attempt": 2, "status": "ok", "dur": 0.6098},
        {"kind": "attempt_finish", "t": 0.7, "workload": "etree15",
         "procs": 2, "attempt": 1, "status": "ok", "dur": 0.25},
    ],
}


@pytest.fixture(scope="module")
def obs_dir(tmp_path_factory):
    """An observability directory: the runtime shards above plus the
    per-cell traces of the paper's schedules B and C."""
    d = tmp_path_factory.mktemp("obs")
    for name, records in SHARDS.items():
        (d / name).write_text("".join(json.dumps(r) + "\n" for r in records))
    for label, sched in (("b", schedule_b), ("c", schedule_c)):
        run = simulate(sched(), spec=CRAY_T3D, capacity=10, metrics=True)
        write_chrome_trace(run, str(d / f"{label}.trace.json"))
    return d


TRACE_DOCS = {
    "chrome_trace": lambda res, obs: chrome_trace(res),
    "violation_trace": lambda res, obs: violation_trace(
        overwrite_demo().checker, label="overwrite-demo"),
    "runtime_chrome_doc": lambda res, obs: runtime_chrome_doc(
        load_runtime_shards(obs)),
    "merged_obs_dir": lambda res, obs: merge_obs_dir(obs),
}


@pytest.mark.parametrize("kind", list(TRACE_DOCS))
def test_trace_document_is_valid(kind, res, obs_dir):
    assert_valid_trace(TRACE_DOCS[kind](res, obs_dir))


# -- the builders equal the frozen reference ----------------------------

REFERENCE_RUNS = {
    "c-t3d-8": (schedule_c, CRAY_T3D, 8),
    "b-t3d-10": (schedule_b, CRAY_T3D, 10),
    "c-t3d-10": (schedule_c, CRAY_T3D, 10),
    "b-unit-tot": (schedule_b, UNIT_MACHINE, None),
}


@pytest.mark.parametrize("run", list(REFERENCE_RUNS))
def test_chrome_trace_equals_the_reference(run):
    sched, spec, capacity = REFERENCE_RUNS[run]
    result = simulate(sched(), spec=spec, capacity=capacity, metrics=True)
    assert chrome_trace(result) == reference_traces.chrome_trace(result)


def test_violation_traces_equal_the_reference():
    reports = [overwrite_demo(), *check_batch(7, graphs=3)]
    assert any(r.violations for r in reports)
    for r in reports:
        assert violation_trace(r.checker, label=r.label) == (
            reference_traces.violation_trace(r.checker, label=r.label))


def test_runtime_chrome_doc_equals_the_reference(obs_dir):
    blocks = load_runtime_shards(obs_dir)
    doc = runtime_chrome_doc(blocks)
    assert doc == reference_traces.runtime_chrome_doc(blocks)
    phases = collections.Counter(e["ph"] for e in doc["traceEvents"])
    # a span per finish, the killed attempt's instant, one retry flow
    assert phases["X"] == 3 and phases["s"] == phases["f"] == 1
    assert any(e["name"].endswith("(no finish)") for e in doc["traceEvents"])


def test_chrome_trace_requires_instrumented_run():
    plain = simulate(schedule_c(), spec=UNIT_MACHINE, capacity=8)
    with pytest.raises(ValueError, match="metrics=True"):
        chrome_trace(plain)


def test_write_chrome_trace_is_valid_json(res, tmp_path):
    p = tmp_path / "trace.json"
    write_chrome_trace(res, str(p))
    doc = json.loads(p.read_text())
    assert doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ms"


# -- HTML report --------------------------------------------------------


def test_html_report_contains_sections(res, tmp_path):
    p = tmp_path / "report.html"
    doc = html_report(res, str(p))
    assert p.read_text() == doc
    for needle in (
        "<!DOCTYPE html>", "State residency", "Memory timeline",
        "Per-processor metrics", "<svg", res.schedule_label,
    ):
        assert needle in doc


def test_html_report_requires_instrumented_run():
    plain = simulate(schedule_c(), spec=UNIT_MACHINE, capacity=8)
    with pytest.raises(ValueError, match="metrics=True"):
        html_report(plain)


# -- SimResult.render_trace --------------------------------------------


def test_render_trace_header_and_limit():
    res = simulate(schedule_c(), spec=UNIT_MACHINE, capacity=8, trace=True)
    full = res.render_trace(limit=None)
    head = full.splitlines()[0]
    assert head.startswith("# trace:")
    assert "capacity=8" in head
    assert "memory_managed=True" in head
    assert f"events={len(res.trace)}" in head
    assert "more events" not in full
    assert len(full.splitlines()) == 1 + len(res.trace)

    cut = res.render_trace(limit=3)
    assert f"({len(res.trace) - 3} more events)" in cut
    assert len(cut.splitlines()) == 1 + 3 + 1  # header + events + ellipsis


def test_render_trace_without_tracing():
    res = simulate(schedule_c(), spec=UNIT_MACHINE, capacity=8)
    assert res.render_trace() == "(tracing was not enabled)"

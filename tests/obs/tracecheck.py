"""The structural checks every Trace Event document the package emits
must pass — one run's trace, the violation window, the runtime shards
and a merged observability directory alike."""

import collections


def flow_pairs(doc) -> dict:
    """``(cat, name, id)`` -> the flow events carrying that key."""
    pairs = collections.defaultdict(list)
    for e in doc["traceEvents"]:
        if e["ph"] in ("s", "f"):
            pairs[(e["cat"], e["name"], e["id"])].append(e)
    return pairs


def assert_valid_trace(doc) -> None:
    """Required keys, ``ts >= 0`` and ``dur >= 0``, metadata first and
    tracks monotonic per ``(pid, tid)``, and every flow key bound to
    exactly one ``s`` and one later ``f``."""
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["schema"].startswith("repro-")
    events = doc["traceEvents"]
    assert events, "empty trace"
    phases = [e["ph"] for e in events]
    assert phases == sorted(phases, key=lambda ph: ph != "M")
    by_track = collections.defaultdict(list)
    for e in events:
        assert {"ph", "pid", "tid", "name"} <= set(e)
        if e["ph"] == "M":
            continue
        assert e["ts"] >= 0
        if e["ph"] == "X":
            assert e["dur"] >= 0
        by_track[(e["pid"], e["tid"])].append(e["ts"])
    for ts in by_track.values():
        assert ts == sorted(ts)
    for key, flow in flow_pairs(doc).items():
        assert [e["ph"] for e in flow] == ["s", "f"], key
        start, end = flow
        assert end["bp"] == "e"
        assert end["ts"] >= start["ts"], key

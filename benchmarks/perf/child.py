"""Sweeps of one workload in a fresh process; prints one JSON line.

Usage (``run.py`` starts it; ``PYTHONPATH`` must name ``src``)::

    python child.py WORKLOAD SEED MODE [ARG]

Modes:

``setup``
    import ``repro`` and build the problems, nothing else;
``measure``
    timed passes over the grid until ``ARG`` seconds have passed and at
    least :data:`MIN_PASSES` passes ran (see :data:`SLOW_HOST`).  Each
    pass builds the problems and the context afresh, then runs one
    ``full_sweep`` call per ``(workload, P)`` group; a host probe runs
    before the first group and after every group;
``serial``
    the whole grid in one in-process ``full_sweep`` call, untraced —
    the reference of ``traced``;
``traced``
    ``serial`` with layer spans recorded (:mod:`spans`); writes the
    Chrome trace of the spans to ``ARG``;
``observed``
    the grid on the workload's ``jobs`` supervised workers with the
    runtime trace written to the directory ``ARG``; reports the
    runtime-layer numbers read back from its shards.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

#: Fewest timed passes of a ``measure`` run, so each group's median
#: rests on at least three samples ...
MIN_PASSES = 3
#: ... unless two passes have taken this many times the measuring time,
#: which keeps a run on a slow host within the run-time budget.
SLOW_HOST = 2.0


def runtime_layer(obs_dir: str, jobs: int, wall_s: float) -> dict:
    """Queue wait, attempt time, utilization and retries of a
    supervised sweep, from the runtime-trace shards it wrote."""
    from repro.obs import load_runtime_shards

    dispatched: dict[tuple, float] = {}
    started: dict[tuple, float] = {}
    attempt_s = 0.0
    retries = 0
    for shard in load_runtime_shards(obs_dir):
        for rec in shard["events"]:
            key = (rec.get("workload"), rec.get("procs"), rec.get("attempt"))
            at = shard["wall0"] + float(rec.get("t", 0.0))
            kind = rec.get("kind")
            if kind == "dispatch":
                dispatched[key] = at
            elif kind == "attempt_start":
                started[key] = at
            elif kind == "attempt_finish":
                attempt_s += float(rec.get("dur", 0.0))
            elif kind == "retry":
                retries += 1
    queue_wait_s = sum(
        max(started[k] - dispatched[k], 0.0) for k in started if k in dispatched
    )
    return {
        "experiments.runtime.queue_wait_s": queue_wait_s,
        "experiments.runtime.attempt_s": attempt_s,
        "experiments.runtime.utilization": attempt_s / (jobs * wall_s),
        "experiments.runtime.retries": retries,
    }


def _peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def main(argv: list[str]) -> dict:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    arg = argv[3] if len(argv) > 3 else None

    from repro.experiments.sweep import full_sweep, to_csv

    from workloads import (
        WORKLOADS, cell_count, context, failed_cells, golden_path,
        group_kwargs, groups, sweep_kwargs,
    )

    w = WORKLOADS[name]
    spans = None
    if mode == "traced":
        from spans import Spans

        spans = Spans(name)
        spans.install()
    ctx = context(w, seed)
    result: dict = {"setup_s": time.perf_counter() - T_START}
    if mode == "setup":
        return result

    cells = cell_count(w)
    path = golden_path(name, seed)
    golden = path.read_text() if path.exists() else None

    def check(records) -> dict:
        text = to_csv(records)
        return {"failed": failed_cells(text, cells, golden),
                "csv_sha256": hashlib.sha256(text.encode()).hexdigest()}

    result.update(golden=golden is not None, cells=cells)
    if mode == "measure":
        from hostprobe import HostProbe

        probe = HostProbe()
        passes = []
        probes = [probe.time_s()]  # group run i lies between probes i and i+1
        t_first = time.perf_counter()
        while True:
            times, records = [], []
            for key, p in groups(w):
                t = time.perf_counter()
                records += full_sweep(ctx, **group_kwargs(w, key, p))
                times.append(time.perf_counter() - t)
                probes.append(probe.time_s())
            passes.append({"group_s": times, **check(records)})
            elapsed = time.perf_counter() - t_first
            if (len(passes) >= MIN_PASSES and elapsed >= float(arg)
                    or len(passes) >= 2 and elapsed >= SLOW_HOST * float(arg)):
                break
            ctx = records = None
            gc.collect()
            ctx = context(w, seed)  # fresh problems and caches
        result.update(passes=passes, probe_s=probes,
                      peak_rss_mb=_peak_rss_mb() - probe.footprint_mb)
        return result

    kwargs = sweep_kwargs(w, supervised=mode == "observed")
    if mode == "observed":
        kwargs["obs_dir"] = arg
    t0 = time.perf_counter()
    records = full_sweep(ctx, **kwargs)
    t1 = time.perf_counter()
    result.update(sweep_s=t1 - t0, counters=ctx.engine_counters(),
                  **check(records))
    if spans is not None:
        from spans import span_cost_s

        result["layers"] = spans.layer_table()
        result["covered_s"] = spans.covered_s(t0, t1)
        result["spans"] = len(spans.spans)
        result["span_cost_s"] = span_cost_s()
        with open(arg, "w") as fh:
            json.dump(spans.chrome_doc(), fh)
    if mode == "observed":
        result["runtime"] = runtime_layer(arg, kwargs["jobs"], t1 - t0)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))

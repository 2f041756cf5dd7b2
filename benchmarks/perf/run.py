"""Sweep benchmark: end-to-end and per-layer numbers of ``full_sweep``.

A run of one workload is a closed loop with one client, on the CPU the
host probe (:mod:`hostprobe`) finds fastest: a few setup-only
processes, then one ``measure`` process (``child.py``) that repeats the
workload's serial sweep in passes, each on freshly built problems, and
times every ``(workload, P)`` group with a host probe beside it.  Every
pass's CSV is checked against the golden CSV of its seed (``golden/``)
and against row invariants.

One workload, the form a harness calls::

    python benchmarks/perf/run.py --workload sweep-default --seed 3 \\
        --seconds 15 --trace 0

measures for at least ``--seconds`` (and at least three passes) and
prints the end-to-end metrics (``--trace 1``: the per-layer metrics of
one traced sweep instead); the last line of stdout is one JSON object.

A set over all workloads, for ``compare.py``::

    python benchmarks/perf/run.py --runs 5 --seed 0 [--trace] [--out F]

runs ``--runs`` rounds of one run per workload, rotating the workload
order each round, and writes every run's numbers to ``F`` (default
``out/set-s<seed>.json``).

Both forms exit non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from hostprobe import REFERENCE_S, HostProbe  # noqa: E402
from spans import LAYER_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics and units.  ``failed_frac`` is the set-level
#: correctness metric; the harness form reports it as ``failed``.
E2E_UNITS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: A set also keeps each run's unscaled sweep time and host probe.
SET_UNITS = {**E2E_UNITS, "failed_frac": "ratio", "sweep_wall_s": "s",
             "host_probe_s": "s"}

#: Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    **{f"{layer}.{m}": (u, "lower")
       for layer in LAYER_NAMES for m, u in (("self_s", "s"), ("calls", "count"))},
    "cache.plan.hit_ratio": ("ratio", "higher"),
    "cache.lower.hit_ratio": ("ratio", "higher"),
    "cache.exec_plan.hit_ratio": ("ratio", "higher"),
    "experiments.runtime.queue_wait_s": ("s", "lower"),
    "experiments.runtime.attempt_s": ("s", "lower"),
    "experiments.runtime.utilization": ("ratio", "higher"),
    "experiments.runtime.retries": ("count", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

#: Setup-only processes per run; with the ``measure`` process's own
#: setup they give three ``setup_s`` samples.
SETUP_PROCS = 2
#: Probes per CPU when choosing the CPU of a run.
CPU_PROBES = 5
#: Most a traced run may leave outside the layer spans, and most the
#: span bookkeeping may cost, as shares of the traced sweep.
MAX_UNATTRIBUTED = 0.05
MAX_SPAN_COST = 0.05
#: ``plan_maps`` self time vs the engine counter ``plan_s``.
PLAN_S_TOLERANCE = 0.05
#: Harness-form runs must end within this many seconds.
RUN_DEADLINE_S = 170.0


class CheckFailed(Exception):
    pass


def run_child(workload: str, seed: int, mode: str, arg=None,
              timeout: float = 300.0) -> dict:
    """Run ``child.py`` in a new session, kill its whole process group
    on timeout, and return its JSON line."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
    if arg is not None:
        cmd.append(str(arg))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"{workload} {mode}: no result in {timeout:.0f} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # leftover workers, if any
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    if proc.returncode != 0:
        raise CheckFailed(f"{workload} {mode}: child exited {proc.returncode}")
    return json.loads(stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


class Run:
    """Child processes of one benchmark run: correctness tallies and
    checks."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self._sha = None

    def child(self, mode: str, arg=None) -> dict:
        r = run_child(self.workload, self.seed, mode, arg,
                      timeout=self.deadline - time.monotonic())
        if mode == "setup":
            return r
        if self._sha is None and not r["golden"]:
            print(f"no golden CSV for {self.workload} seed {self.seed}: "
                  "row invariants only", file=sys.stderr)
        for sweep in r.get("passes", [r]):
            self.attempted += r["cells"]
            self.failed += sweep["failed"]
            if self._sha is None:
                self._sha = sweep["csv_sha256"]
            elif sweep["csv_sha256"] != self._sha:
                self.problems.append(f"{mode} sweep CSV differs from the run's first")
        return r

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def normalised_sweep_s(passes: list[dict], probes: list[float]) -> float:
    """Sweep time in seconds of the reference host.  ``probes[i]`` and
    ``probes[i + 1]`` bracket the i-th group run of the whole sequence;
    each group run is scaled by ``REFERENCE_S`` over the median of the
    probes around it (two before, two after), and the groups' medians
    over the passes are summed."""
    per_group: list[list[float]] = [[] for _ in passes[0]["group_s"]]
    i = 0
    for sweep in passes:
        for g, t in enumerate(sweep["group_s"]):
            local = statistics.median(probes[max(i - 1, 0):i + 3])
            per_group[g].append(t * REFERENCE_S / local)
            i += 1
    return sum(statistics.median(v) for v in per_group)


def wall_sweep_s(passes: list[dict]) -> float:
    """Unscaled counterpart of :func:`normalised_sweep_s`."""
    return sum(statistics.median(ts)
               for ts in zip(*(sweep["group_s"] for sweep in passes)))


def pin_fastest_cpu(cpus: set[int]) -> tuple[int, float]:
    """Pin this process to the CPU of ``cpus`` on which the host probe
    runs fastest now; returns that CPU and its median probe time."""
    probe = HostProbe()
    times = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        times[cpu] = statistics.median(probe.time_s() for _ in range(CPU_PROBES))
    cpu = min(times, key=times.get)
    os.sched_setaffinity(0, {cpu})
    return cpu, times[cpu]


def e2e_run(run: Run, seconds: float) -> dict[str, float]:
    """One run's end-to-end metrics (and the set-only numbers).  Its
    processes all run on the CPU the host slows least at the start: a
    neighbour can slow one vCPU of a shared host 2.5x while the other
    runs at full speed."""
    allowed = os.sched_getaffinity(0)
    try:  # children inherit the affinity
        cpu, cpu_probe = pin_fastest_cpu(allowed)
        setup = [run.child("setup")["setup_s"] for _ in range(SETUP_PROCS)]
        m = run.child("measure", seconds)
    finally:
        os.sched_setaffinity(0, allowed)
    setup.append(m["setup_s"])
    passes, probes = m["passes"], m["probe_s"]
    probe = statistics.median(probes)
    walls = [sum(sweep["group_s"]) for sweep in passes]
    print(f"{run.workload}: CPU {cpu} (probe {cpu_probe:.4f} s), "
          f"{len(passes)} passes, wall " + " ".join(f"{t:.3f}" for t in walls)
          + f" s, host probe {probe:.4f} s (reference {REFERENCE_S} s),"
          f" setup " + " ".join(f"{t:.3f}" for t in setup) + " s",
          file=sys.stderr)
    return {
        "sweep_s": normalised_sweep_s(passes, probes),
        "setup_s": statistics.median(setup) * REFERENCE_S / probe,
        "peak_rss_mb": m["peak_rss_mb"],
        "failed_frac": run.failed / run.attempted,
        "sweep_wall_s": wall_sweep_s(passes),
        "host_probe_s": probe,
    }


def _hit_ratio(counters: dict, cache: str) -> float:
    hits, misses = counters[f"{cache}_hits"], counters[f"{cache}_misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def trace_run(run: Run) -> dict[str, float]:
    """Per-layer metrics of one traced sweep, plus its untraced
    reference; for a workload with ``jobs > 1`` also one observed
    supervised sweep for the runtime layer.  Writes the merged Chrome
    trace to ``out/``."""
    w = WORKLOADS[run.workload]
    OUT.mkdir(exist_ok=True)
    reference = run.child("serial")
    spans_path = OUT / f"spans-{run.workload}-s{run.seed}.json"
    traced = run.child("traced", spans_path)
    runtime = dict.fromkeys(
        (m for m in PER_LAYER if m.startswith("experiments.runtime.")), 0.0)
    obs_dir = None
    if w.jobs > 1:
        obs_dir = pathlib.Path(tempfile.mkdtemp(prefix="obs-", dir=OUT))
        runtime = run.child("observed", obs_dir)["runtime"]

    wall = traced["sweep_s"]
    metrics: dict[str, float] = {}
    for layer, row in traced["layers"].items():
        metrics[f"{layer}.self_s"] = row["self_s"]
        metrics[f"{layer}.calls"] = row["calls"]
    counters = traced["counters"]
    for cache in ("plan", "lower", "exec_plan"):
        metrics[f"cache.{cache}.hit_ratio"] = _hit_ratio(counters, cache)
    metrics.update(runtime)
    metrics["trace.unattributed_frac"] = 1.0 - traced["covered_s"] / wall
    metrics["trace.overhead"] = wall / reference["sweep_s"]

    if metrics["trace.unattributed_frac"] > MAX_UNATTRIBUTED:
        run.problems.append(
            f"trace.unattributed_frac {metrics['trace.unattributed_frac']:.3f}"
            f" > {MAX_UNATTRIBUTED}")
    span_cost = traced["spans"] * traced["span_cost_s"] / wall
    if span_cost > MAX_SPAN_COST:
        run.problems.append(f"span bookkeeping {span_cost:.3f} of the sweep")
    plan_self, plan_s = metrics["core.maps.plan_maps.self_s"], counters["plan_s"]
    if abs(plan_self - plan_s) > PLAN_S_TOLERANCE * plan_s + 1e-3:
        run.problems.append(
            f"plan_maps self {plan_self:.4f} s vs counter plan_s {plan_s:.4f} s")

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.obs import merge_chrome_traces, merge_obs_dir

    docs = [json.loads(spans_path.read_text())]
    if obs_dir is not None:
        docs.append(merge_obs_dir(obs_dir))
        shutil.rmtree(obs_dir)
    spans_path.unlink()
    trace_path = OUT / f"trace-{run.workload}-s{run.seed}.json"
    trace_path.write_text(json.dumps(merge_chrome_traces(docs)) + "\n")
    print(f"trace: {trace_path} ({traced['spans']} spans, span cost "
          f"{span_cost:.2%})", file=sys.stderr)
    return metrics


def _fmt(x: float) -> str:
    return f"{x:.4g}" if isinstance(x, float) else str(x)


def print_samples(workload: str, samples: dict, units: dict) -> None:
    for m, values in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"{workload:16s} {m:14s} median {_fmt(med)} {units[m]}"
              f"  [q1 {_fmt(q1)}, q3 {_fmt(q3)}]  n={len(values)}")


def print_layers(workload: str, metrics: dict) -> None:
    for m, v in metrics.items():
        print(f"{workload:16s} {m:44s} {_fmt(v)} {PER_LAYER[m][0]}")


def harness(args) -> int:
    """One workload, one seed; last stdout line is the result object."""
    run = Run(args.workload, args.seed, time.monotonic() + RUN_DEADLINE_S)
    if args.trace:
        values = trace_run(run)
        print_layers(args.workload, values)
        units = {m: u for m, (u, _) in PER_LAYER.items()}
    else:
        values = e2e_run(run, args.seconds)
        units = SET_UNITS
        for m in SET_UNITS:
            print(f"{args.workload:16s} {m:14s} {_fmt(values[m])} {units[m]}")
    metrics = {m: {"value": values[m], "unit": units[m]}
               for m in (PER_LAYER if args.trace else E2E_UNITS)}
    for p in run.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.correct else 1


def run_set(args) -> int:
    """``--runs`` rounds over every workload, order rotated per round."""
    names = list(WORKLOADS)
    result = {"schema": "repro-perf-set/2", "seed": args.seed,
              "runs": args.runs, "seconds": args.seconds, "workloads": {}}
    per = {w: {m: [] for m in SET_UNITS} for w in names}
    ok = True
    for rnd in range(args.runs):
        for w in names[rnd % len(names):] + names[:rnd % len(names)]:
            run = Run(w, args.seed, time.monotonic() + 600.0)
            values = e2e_run(run, args.seconds)
            for m in SET_UNITS:
                per[w][m].append(values[m])
            ok &= run.correct
            print(f"round {rnd + 1}/{args.runs} {w}: sweep_s "
                  f"{values['sweep_s']:.3f} failed {run.failed}/{run.attempted}",
                  file=sys.stderr)
    for w in names:
        result["workloads"][w] = {"e2e": per[w]}
        print_samples(w, per[w], SET_UNITS)
    if args.trace:
        for w in names:
            run = Run(w, args.seed, time.monotonic() + 600.0)
            layers = trace_run(run)
            result["workloads"][w]["trace"] = layers
            print_layers(w, layers)
            ok &= run.correct
            for p in run.problems:
                print(f"CHECK FAILED: {w}: {p}", file=sys.stderr)
    out = pathlib.Path(args.out) if args.out else OUT / f"set-s{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"set written to {out}", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS),
                    help="measure one workload (harness form)")
    ap.add_argument("--seed", type=int, default=0,
                    help="added to every matrix generator seed (default 0)")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="least measuring time of one run (default 15)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="per-layer metrics from traced runs")
    ap.add_argument("--runs", type=int, default=5,
                    help="set form: rounds over all workloads")
    ap.add_argument("--out", help="set form: where to write the set JSON")
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        return harness(args) if args.workload else run_set(args)
    except CheckFailed as err:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

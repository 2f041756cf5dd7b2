"""Compare two benchmark sets: ``python benchmarks/perf/compare.py A.json B.json``.

``A`` is the parent, ``B`` the change; both are written by
``run.py --runs N``.  For every workload and end-to-end metric it prints
both medians with their quartiles and a verdict, using the bounds of
``BENCHMARK.json``:

* ``regression`` — B's median is worse than A's by more than the bound
  (and the spread resolves it, or every B run is worse than every A run);
* ``better`` — the mirror image;
* ``unresolved`` — a set's quartile spread is wider than the bound, so
  the sets cannot tell a change of that size from noise;
* ``unchanged`` — otherwise.

``failed_frac`` has a bound of zero: any increase is a regression.  The
sets' ``host_probe_s`` and unscaled ``sweep_wall_s`` medians are printed
so drift of the host between the sets is visible.  Exits 1 on any
regression.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

from run import quartiles

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    """Verdict on B against A for one metric (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    worse = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    # in "badness" units, larger is worse whichever way the metric points
    bad_a, bad_b = [sign * x for x in a], [sign * x for x in b]
    b_all_better = max(bad_b) < min(bad_a)
    b_all_worse = min(bad_b) > max(bad_a)
    if worse > bound and (spread <= bound or b_all_worse):
        return "regression"
    if worse < -bound and (spread <= bound or b_all_better):
        return "better"
    return "unresolved" if spread > bound else "unchanged"


def compare(a: dict, b: dict, bench: dict) -> tuple[list[str], bool]:
    """Report lines and whether B regressed against A."""
    lines, regressed = [], False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            lines.append(f"{name}: missing from B")
            regressed = True
            continue
        ea, eb = a["workloads"][name]["e2e"], b["workloads"][name]["e2e"]
        for m in bench["end_to_end"]:
            key = m["name"]
            v = verdict(ea[key], eb[key], m["bound"], m["better"])
            regressed |= v == "regression"
            qa, qb = quartiles(ea[key]), quartiles(eb[key])
            lines.append(
                f"{name:16s} {key:12s} A {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                f" n={len(ea[key])}  B {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]"
                f" n={len(eb[key])}  {(qb[1] - qa[1]) / qa[1]:+.1%}"
                f" (bound {m['bound']:.0%}) {v}"
            )
        fa, fb = max(ea["failed_frac"]), max(eb["failed_frac"])
        failed_worse = fb > fa
        regressed |= failed_worse
        lines.append(f"{name:16s} failed_frac  A {fa:.4g}  B {fb:.4g} "
                     f"{'regression' if failed_worse else 'unchanged'}")
        for key in ("host_probe_s", "sweep_wall_s"):
            pa, pb = statistics.median(ea[key]), statistics.median(eb[key])
            lines.append(f"{name:16s} {key:12s} A {pa:.4g}  B {pb:.4g}"
                         f"  B/A {pb / pa:.3f}")
    return lines, regressed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="parent set (run.py output)")
    ap.add_argument("b", help="change set")
    args = ap.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    a = json.loads(pathlib.Path(args.a).read_text())
    b = json.loads(pathlib.Path(args.b).read_text())
    lines, regressed = compare(a, b, bench)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

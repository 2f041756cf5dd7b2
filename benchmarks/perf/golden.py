"""Regenerate the golden CSVs the benchmark checks every sweep against.

    python benchmarks/perf/golden.py --seeds 0 1 2

Each workload's grid and columns run in-process as one ``full_sweep``
call on the interpreted engine, the reference oracle, so the golden
rows come from a different path than the benchmark's one call per
group, the compiled engine of ``replay-compiled`` and the two
supervised workers of the traced ``sweep-verified`` run.  Every golden
row must satisfy the row invariants, and the
seed-0 ``sweep-default`` CSV must be byte-identical to what
``repro sweep`` produces with no problem registered — the proof that
the benchmark measures the program users run.
"""

from __future__ import annotations

import argparse
import csv
import io
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

from repro.experiments.common import ExperimentContext  # noqa: E402
from repro.experiments.sweep import full_sweep, to_csv  # noqa: E402
from workloads import (  # noqa: E402
    GOLDEN_DIR, WORKLOADS, context, golden_path, row_ok, sweep_kwargs,
)


def golden_csv(name: str, seed: int) -> str:
    w = WORKLOADS[name]
    kwargs = {**sweep_kwargs(w), "engine": "interpreted"}
    return to_csv(full_sweep(context(w, seed), **kwargs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = ap.parse_args(argv)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for seed in args.seeds:
        for name in WORKLOADS:
            text = golden_csv(name, seed)
            rows = list(csv.DictReader(io.StringIO(text)))
            bad = [r for r in rows if not row_ok(r)]
            if bad:
                print(f"{name} seed {seed}: {len(bad)} rows break the "
                      f"invariants, first {bad[0]}", file=sys.stderr)
                return 1
            golden_path(name, seed).write_bytes(text.encode())
            print(f"wrote {golden_path(name, seed).name} ({len(rows)} rows)")
    if 0 in args.seeds:
        plain = to_csv(full_sweep(ExperimentContext())).encode()
        if plain != golden_path("sweep-default", 0).read_bytes():
            print("seed-0 sweep-default differs from the plain default sweep",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke tests of the sweep benchmark (outside the tier-1 suite).

    PYTHONPATH=src python -m pytest -q benchmarks/perf/test_perf_smoke.py

The two end-to-end cases run real sweeps of ``replay-compiled``, the
shortest workload, and take about a minute together.
"""

from __future__ import annotations

import copy
import hashlib
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, cell_count, golden_path  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench_copy(tmp_path: pathlib.Path, with_src: bool = True) -> pathlib.Path:
    """The benchmark in a scratch checkout (``src`` linked, not copied)."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def _harness(root: pathlib.Path, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "replay-compiled", "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_tables_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} \
        == run.PER_LAYER
    assert BENCH["command"] == ["python3", "benchmarks/perf/run.py"]


def test_seed0_golden_is_the_default_sweep():
    digest = hashlib.sha256(golden_path("sweep-default", 0).read_bytes())
    assert digest.hexdigest().startswith("0250a1b49e67")


@pytest.mark.parametrize("trace", [0, 1])
def test_result_names_match_benchmark_json(trace):
    code, result = _harness(ROOT, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def test_mutated_golden_row_fails(tmp_path):
    root = _bench_copy(tmp_path)
    golden = root / "benchmarks/perf/golden/replay-compiled-s0.csv"
    lines = golden.read_text().splitlines(keepends=True)
    lines[5] = lines[5].replace(",True,", ",False,", 1)
    golden.write_text("".join(lines))
    code, result = _harness(root, 0)
    assert code != 0 and not result["correct"]
    # one failed cell in every pass
    assert result["attempted"] == cell_count(WORKLOADS["replay-compiled"]) \
        * result["failed"]


def test_without_program_exits_nonzero_and_prints_nothing(tmp_path):
    root = _bench_copy(tmp_path, with_src=False)
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "sweep-default", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def _synthetic_set(scale: float = 1.0, failed: float = 0.0) -> dict:
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    e2e = {m: [scale * x for x in base] for m in run.E2E_UNITS}
    e2e["failed_frac"] = [failed] * len(base)
    e2e["sweep_wall_s"] = list(base)
    e2e["host_probe_s"] = [0.1] * len(base)
    return {"workloads": {w: {"e2e": copy.deepcopy(e2e)} for w in WORKLOADS}}


def test_normalised_sweep_time_ignores_host_speed():
    quiet = [{"group_s": [1.0, 2.0]}] * 3
    slow = [{"group_s": [2.0, 4.0]}] * 3
    bursty = quiet[:2] + [{"group_s": [3.0, 2.0]}]
    want = 3.0 * run.REFERENCE_S / 0.03
    for passes, probe in ((quiet, 0.03), (slow, 0.06), (bursty, 0.03)):
        assert run.normalised_sweep_s(passes, [probe] * 7) == pytest.approx(want)
    # a host that slows down halfway through the run
    drift = [0.03] * 4 + [0.06] * 3
    passes = [{"group_s": [1.0, 2.0]}, {"group_s": [1.0, 4.0]},
              {"group_s": [2.0, 4.0]}]
    assert run.normalised_sweep_s(passes, drift) == pytest.approx(want)
    assert run.wall_sweep_s(slow) == pytest.approx(6.0)


@pytest.mark.parametrize("b, code", [
    (_synthetic_set(), 0),
    (_synthetic_set(scale=1.2), 1),
    (_synthetic_set(scale=0.8), 0),
    (_synthetic_set(failed=0.01), 1),
])
def test_compare_verdicts(tmp_path, b, code):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(_synthetic_set()))
    pb.write_text(json.dumps(b))
    assert compare.main([str(pa), str(pb)]) == code


def test_compare_baseline_with_itself():
    baseline = str(HERE / "baseline.json")
    assert compare.main([baseline, baseline]) == 0

"""Smoke test for the engine benchmark (benchmarks/bench_sweep_engine.py).

The full benchmark is too slow for tier 1, so these cases run its two
cheapest sections on their real inputs.  They assert what the sections
prove (the certified bounds hit the proved optima, the compiled engine
agrees exactly with the interpreted oracle), not the speed ratios, so a
renamed internal breaks this suite instead of the benchmark silently.
"""

import importlib.util
import pathlib

import pytest

from repro.experiments import ExperimentContext

_BENCH = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "bench_sweep_engine.py"
)


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_sweep_engine", _BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_bounds_proves_the_optima(bench):
    out = bench.bench_bounds()
    assert out["paper"]["proved_optima"] == {"pt": 16.0, "min_mem": 7.0}
    assert out["etree15"]["proved_optima"] == {"min_mem": 8224.0}
    assert out["etree_vs_analyze"] > 0.0
    assert out["aggregate_vs_analyze"] > 0.0


def test_engine_gate_cell_is_exact(bench):
    # chol15 at P=1 is one silent run of every task, so the compiled
    # side drives the vectorised segment kernel end to end.
    cell = bench._time_engine_pair(ExperimentContext(), *bench.ENGINE_GATE_CELL)
    assert cell["exact"]
    assert (cell["workload"], cell["procs"]) == ("chol15", 1)
    assert cell["compiled_s"] > 0.0

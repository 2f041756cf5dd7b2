"""Telemetry columns of the sweep engine.

Two contracts: (1) with ``metrics=False`` (the default) the CSV is
byte-identical to the pre-telemetry format — header and rows carry no
telemetry columns, serial or parallel; (2) with ``metrics=True`` every
record carries ``map_overhead_frac`` / ``max_hwm`` / ``max_suspq``
(``inf`` for non-executable cells) and the CSV round-trips.
"""

import math

import pytest

from repro.experiments import ExperimentContext
from repro.experiments.sweep import (
    FIELDS,
    OPTIONAL_COLUMNS,
    from_csv,
    full_sweep,
    to_csv,
)

GRID = dict(
    workloads=("lu-goodwin",),
    procs=(4, 8),
    heuristics=("rcp", "mpo"),
    fractions=(1.0, 0.4),
)


@pytest.fixture(scope="module")
def plain():
    return full_sweep(ExperimentContext(), **GRID)


@pytest.fixture(scope="module")
def instrumented():
    return full_sweep(ExperimentContext(), metrics=True, **GRID)


class TestPlainCsvUnchanged:
    def test_header_has_no_metric_columns(self, plain):
        header = to_csv(plain).splitlines()[0]
        assert header == ",".join(FIELDS)
        for col in OPTIONAL_COLUMNS["metrics"].fields:
            assert col not in header

    def test_records_carry_no_metrics(self, plain):
        for r in plain:
            assert r.map_overhead_frac is None
            assert r.max_hwm is None
            assert r.max_suspq is None

    def test_jobs2_csv_byte_identical(self, plain):
        par = full_sweep(ExperimentContext(), jobs=2, **GRID)
        assert to_csv(par) == to_csv(plain)

    def test_roundtrip(self, plain):
        assert from_csv(to_csv(plain)) == plain


class TestMetricsColumns:
    def test_timing_fields_unchanged_by_instrumentation(self, plain, instrumented):
        """Instrumentation must not perturb the simulation."""
        strip = [
            (r.workload, r.procs, r.heuristic, r.fraction, r.executable,
             r.parallel_time, r.pt_increase, r.avg_maps)
            for r in instrumented
        ]
        base = [
            (r.workload, r.procs, r.heuristic, r.fraction, r.executable,
             r.parallel_time, r.pt_increase, r.avg_maps)
            for r in plain
        ]
        assert strip == base

    def test_header_gains_metric_columns(self, instrumented):
        header = to_csv(instrumented).splitlines()[0]
        assert header == ",".join(FIELDS + OPTIONAL_COLUMNS["metrics"].fields)

    def test_executable_cells_have_finite_metrics(self, instrumented):
        for r in instrumented:
            if r.executable:
                assert 0.0 <= r.map_overhead_frac < 1.0
                assert 0 < r.max_hwm <= r.capacity
                assert r.max_suspq >= 0
            else:
                assert math.isinf(r.map_overhead_frac)
                assert math.isinf(r.max_hwm)
                assert math.isinf(r.max_suspq)

    def test_roundtrip(self, instrumented):
        assert from_csv(to_csv(instrumented)) == instrumented

    def test_jobs2_identical(self, instrumented):
        par = full_sweep(ExperimentContext(), jobs=2, metrics=True, **GRID)
        assert par == instrumented
        assert to_csv(par) == to_csv(instrumented)

    def test_run_cell_cache_does_not_mix_modes(self):
        """A context asked for plain then instrumented cells (or vice
        versa) keeps the two simulation caches apart."""
        ctx = ExperimentContext()
        a = ctx.run_cell("lu-goodwin", 4, "rcp", 1.0, reference="rcp")
        b = ctx.run_cell(
            "lu-goodwin", 4, "rcp", 1.0, reference="rcp", columns=("metrics",)
        )
        assert a.map_overhead_frac is None
        assert b.map_overhead_frac is not None
        assert a.parallel_time == b.parallel_time

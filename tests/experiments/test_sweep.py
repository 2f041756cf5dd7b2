"""Tests for the generic sweep runner and its CSV round trip."""

import math

import pytest

from repro.experiments import ExperimentContext
from repro.experiments.common import compare_pt
from repro.experiments.sweep import (
    FAILURE_FIELDS,
    FIELDS,
    OPTIONAL_COLUMNS,
    SweepRecord,
    from_csv,
    full_sweep,
    to_csv,
)


def cols(*families):
    """The :data:`OPTIONAL_COLUMNS` fields of ``families``, in order."""
    return tuple(f for fam in families for f in OPTIONAL_COLUMNS[fam].fields)


@pytest.fixture(scope="module")
def records():
    ctx = ExperimentContext()
    return full_sweep(
        ctx,
        workloads=("lu-goodwin",),
        procs=(4, 8),
        heuristics=("rcp", "mpo"),
        fractions=(1.0, 0.5),
    )


class TestFullSweep:
    def test_grid_size(self, records):
        assert len(records) == 1 * 2 * 2 * 2

    def test_executable_cells_have_metrics(self, records):
        for r in records:
            if r.executable:
                assert r.parallel_time > 0 and r.avg_maps >= 1.0
            else:
                assert math.isinf(r.parallel_time)

    def test_min_mem_consistency(self, records):
        for r in records:
            assert r.executable == (r.min_mem <= r.capacity)

    def test_mpo_extends_executability(self, records):
        by = {(r.heuristic, r.procs, r.fraction): r for r in records}
        # wherever RCP runs, capacity >= its MIN_MEM; MPO's MIN_MEM never
        # exceeds RCP's on this workload
        for p in (4, 8):
            assert by[("mpo", p, 1.0)].min_mem <= by[("rcp", p, 1.0)].min_mem


class TestBoundsColumns:
    """``bounds=True`` populates the certified-bound columns."""

    @pytest.fixture(scope="class")
    def bounded(self):
        ctx = ExperimentContext()
        return full_sweep(
            ctx,
            workloads=("lu-goodwin",),
            procs=(4,),
            heuristics=("rcp",),
            fractions=(1.0, 0.5),
            bounds=True,
        )

    def test_every_record_carries_the_bounds(self, bounded):
        for r in bounded:
            assert r.pt_bound is not None and r.pt_bound > 0
            assert r.mem_bound is not None and r.mem_bound > 0

    def test_gaps_are_nonnegative(self, bounded):
        # A certified bound is never beaten: value/bound - 1 >= 0.
        for r in bounded:
            if r.executable:
                assert r.pt_bound_gap >= -1e-9
                assert r.mem_bound_gap >= -1e-9
                assert r.parallel_time >= r.pt_bound * (1 - 1e-9)
            else:
                assert math.isinf(r.pt_bound_gap)

    def test_bounds_constant_across_the_fraction_axis(self, bounded):
        # The bounds depend on graph/placement/assignment only, so the
        # fraction axis reuses one cached computation per cell family.
        vals = {(r.pt_bound, r.mem_bound) for r in bounded}
        assert len(vals) == 1

    def test_round_trip_and_header(self, bounded):
        text = to_csv(bounded)
        assert text.splitlines()[0] == ",".join(FIELDS + cols("bounds"))
        assert from_csv(text) == bounded


class TestOneCellRecord:
    """A sweep's records are the records ``run_cell`` returns."""

    def test_every_family_matches_run_cell(self):
        grid = dict(workloads=("chol15",), procs=(2, 4),
                    heuristics=("rcp", "mpo"), fractions=(1.0, 0.25))
        swept = full_sweep(ExperimentContext(), metrics=True, check=True,
                           analyze=True, bounds=True, **grid)
        ctx = ExperimentContext()
        cells = [
            ctx.run_cell(k, p, h, f, reference="rcp",
                         columns=tuple(OPTIONAL_COLUMNS))
            for k in grid["workloads"] for p in grid["procs"]
            for h in grid["heuristics"] for f in grid["fractions"]
        ]
        assert swept == cells
        static = cols("analyze") + ("pt_bound", "mem_bound", "mem_bound_gap")
        simulated = cols("metrics", "check") + ("pt_bound_gap",)
        blocked = [r for r in swept if not r.executable]
        assert blocked and any(r.executable for r in swept)
        for r in blocked:
            assert all(math.isfinite(getattr(r, f)) for f in static)
            assert all(math.isinf(getattr(r, f)) for f in simulated)


class TestParallelSweep:
    """The process-parallel executor must reproduce the serial sweep
    bit for bit, in the same order."""

    def _grid(self):
        return dict(
            workloads=("lu-goodwin",),
            procs=(4, 8),
            heuristics=("rcp", "mpo"),
            fractions=(1.0, 0.5),
        )

    def test_jobs2_identical_records(self, records):
        par = full_sweep(ExperimentContext(), jobs=2, **self._grid())
        assert par == records

    def test_jobs2_identical_csv_bytes(self, records):
        par = full_sweep(ExperimentContext(), jobs=2, **self._grid())
        assert to_csv(par) == to_csv(records)

    def test_jobs_zero_means_all_cpus(self, records):
        par = full_sweep(ExperimentContext(), jobs=0, **self._grid())
        assert par == records

    def test_single_group_runs_serially(self):
        """One (workload, procs) group short-circuits to the serial
        path even with jobs > 1."""
        ctx = ExperimentContext()
        recs = full_sweep(
            ctx,
            workloads=("lu-goodwin",),
            procs=(4,),
            heuristics=("rcp",),
            fractions=(1.0,),
            jobs=4,
        )
        assert len(recs) == 1
        # The serial path ran on this context: its counters hold the
        # group's two compiled runs (the RCP baseline and the cell).
        assert ctx.engine_counters()["compiled_runs"] == 2


class TestCSV:
    def test_header(self, records):
        text = to_csv(records)
        assert text.splitlines()[0] == ",".join(FIELDS)

    def test_roundtrip(self, records):
        text = to_csv(records)
        back = from_csv(text)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.workload == b.workload and a.procs == b.procs
            assert a.executable == b.executable
            if a.executable:
                assert a.parallel_time == pytest.approx(b.parallel_time)
            else:
                assert math.isinf(b.parallel_time)

    def test_file_output(self, records, tmp_path):
        out = tmp_path / "sweep.csv"
        to_csv(records, path=str(out))
        assert out.exists()
        assert len(from_csv(out.read_text())) == len(records)

    def test_file_output_is_atomic_replace(self, records, tmp_path):
        # Crash-safe writes go through a temp file + os.replace: the
        # target is fully replaced and no droppings are left behind.
        out = tmp_path / "sweep.csv"
        out.write_text("stale partial content")
        text = to_csv(records, path=str(out))
        assert out.read_bytes() == text.encode()
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


INF = float("inf")


def make_record(**kw) -> SweepRecord:
    base = dict(
        workload="lu-goodwin", procs=4, heuristic="rcp", fraction=0.5,
        executable=True, capacity=100, min_mem=40, tot=200,
        parallel_time=1.2345678901234567, pt_increase=0.1, avg_maps=2.5,
    )
    base.update(kw)
    return SweepRecord(**base)


#: One record per optional-column family, plus a non-executable row
#: with ``inf`` everywhere — the building blocks of the combinations.
OPTIONAL_VARIANTS = {
    "metrics": dict(map_overhead_frac=0.01, max_hwm=12.0, max_suspq=3.0),
    "metrics-inf": dict(map_overhead_frac=INF, max_hwm=INF, max_suspq=INF,
                        executable=False, parallel_time=INF,
                        pt_increase=INF, avg_maps=INF),
    "check": dict(violations=0.0),
    "analyze": dict(analysis_errors=2.0),
    "bounds": dict(pt_bound=16.0, mem_bound=7.0, pt_bound_gap=0.0,
                   mem_bound_gap=0.0),
    "bounds-inf": dict(pt_bound=16.0, mem_bound=7.0, pt_bound_gap=INF,
                       mem_bound_gap=INF, executable=False,
                       parallel_time=INF, pt_increase=INF, avg_maps=INF),
    "failure": dict(executable=False, parallel_time=INF, pt_increase=INF,
                    avg_maps=INF, capacity=0, min_mem=0, tot=0,
                    status="crashed", error="worker process died, twice",
                    attempts=3, elapsed=12.5),
}


class TestCSVOptionalColumnRoundTrips:
    """Exact ``from_csv(to_csv(x)) == x`` across every optional-column
    combination, including ``inf`` and empty cells."""

    @pytest.mark.parametrize("variant", sorted(OPTIONAL_VARIANTS))
    def test_single_family(self, variant):
        recs = [make_record(), make_record(**OPTIONAL_VARIANTS[variant])]
        assert from_csv(to_csv(recs)) == recs

    def test_plain_records_omit_all_optional_columns(self):
        text = to_csv([make_record()])
        assert text.splitlines()[0] == ",".join(FIELDS)

    @pytest.mark.parametrize(
        ("families", "expected_fields"),
        [
            (("metrics",), FIELDS + cols("metrics")),
            (("check",), FIELDS + cols("check")),
            (("analyze",), FIELDS + cols("analyze")),
            (("bounds",), FIELDS + cols("bounds")),
            (("failure",), FIELDS + FAILURE_FIELDS),
            (("metrics", "check"), FIELDS + cols("metrics", "check")),
            (("metrics", "check", "analyze", "failure"),
             FIELDS + cols("metrics", "check", "analyze")
             + FAILURE_FIELDS),
            (("analyze", "bounds"),
             FIELDS + cols("analyze", "bounds")),
            (("check", "failure"), FIELDS + cols("check") + FAILURE_FIELDS),
            (("bounds", "metrics", "failure"),
             FIELDS + cols("metrics", "bounds") + FAILURE_FIELDS),
        ],
    )
    def test_header_matches_populated_families(self, families, expected_fields):
        recs = [make_record()] + [
            make_record(**OPTIONAL_VARIANTS[f]) for f in families
        ]
        text = to_csv(recs)
        assert text.splitlines()[0] == ",".join(expected_fields)
        assert from_csv(text) == recs

    def test_mixed_rows_leave_empty_cells(self):
        # A failure row in a metrics sweep has empty telemetry cells and
        # vice versa; both sides must come back as None, not 0.
        recs = [
            make_record(**OPTIONAL_VARIANTS["metrics"]),
            make_record(**OPTIONAL_VARIANTS["failure"]),
        ]
        back = from_csv(to_csv(recs))
        assert back == recs
        assert back[0].status is None and back[1].map_overhead_frac is None

    def test_failure_types_survive(self):
        (back,) = from_csv(to_csv([make_record(**OPTIONAL_VARIANTS["failure"])]))
        assert isinstance(back.attempts, int)
        assert isinstance(back.elapsed, float)
        assert back.error == "worker process died, twice"

    def test_every_family_has_a_variant(self):
        # A new OPTIONAL_COLUMNS family must come with a round-trip case.
        assert set(OPTIONAL_COLUMNS) <= set(OPTIONAL_VARIANTS)


class TestGridValidation:
    """A bad grid fails before any work starts, on the serial path and
    on the supervised ``jobs=2`` path alike (no retries, no
    ``status=error`` rows)."""

    @pytest.mark.parametrize("path", ["serial", "supervised"])
    @pytest.mark.parametrize(
        ("bad", "error", "match"),
        [
            ({"workloads": ("nope",)}, KeyError, "lu-goodwin"),
            ({"heuristics": ("bogus",)}, ValueError, "tree"),
            ({"reference": "RCP"}, ValueError, "reference"),
            ({"engine": "auto"}, ValueError, "engine"),
            ({"procs": (0,)}, ValueError, "processor counts"),
            ({"fractions": (-0.5,)}, ValueError, "fractions"),
            ({"fractions": (float("nan"),)}, ValueError, "fractions"),
            ({"bogus": True}, ValueError,
             r"column family.*\['bogus'\].*'metrics', 'check', 'analyze', "
             r"'bounds'"),
            ({"reference": "self", "heuristics": ("rcp", "dts-merge")},
             ValueError, "dts-merge needs reference='rcp'"),
        ],
    )
    def test_bad_grid_fails_fast(self, path, bad, error, match):
        from repro.experiments.runtime import RuntimePolicy

        grid = dict(workloads=("lu-goodwin",), procs=(2, 4),
                    heuristics=("rcp",), fractions=(1.0,))
        grid.update(bad)
        if path == "supervised":
            grid.update(jobs=2, runtime=RuntimePolicy())
        ctx = ExperimentContext()
        with pytest.raises(error, match=match):
            full_sweep(ctx, **grid)
        assert not ctx._groups and not ctx.engine_counters()

    def test_run_cell_rejects_unknown_column_family(self):
        with pytest.raises(ValueError, match="column family"):
            ExperimentContext().run_cell("lu-goodwin", 4, "rcp", 1.0,
                                         columns=("bogus",))

    def test_run_cell_rejects_unknown_reference(self):
        with pytest.raises(ValueError, match="reference"):
            ExperimentContext().run_cell("lu-goodwin", 4, "rcp", 1.0,
                                         reference="RCP")

    def test_run_cell_rejects_dts_merge_on_its_own_tot(self):
        ctx = ExperimentContext()
        with pytest.raises(ValueError, match="dts-merge needs reference='rcp'"):
            ctx.run_cell("lu-goodwin", 4, "dts-merge", 1.0, reference="self")
        assert not ctx._groups


class TestDtsMergeSweep:
    def test_rows_are_the_table7_cells(self):
        """A ``dts-merge`` sweep orders each cell under its capacity:
        its rows are ``run_cell``'s cells, which ``table7`` compares."""
        from repro.experiments.tables import table7

        fractions = (0.75, 0.5)
        rows = full_sweep(ExperimentContext(), workloads=("chol15",), procs=(2,),
                          heuristics=("rcp", "dts-merge"), fractions=fractions)
        ctx = ExperimentContext()
        assert rows == [ctx.run_cell("chol15", 2, h, f, reference="rcp")
                        for h in ("rcp", "dts-merge") for f in fractions]
        cell = {(r.heuristic, r.fraction): r for r in rows}
        assert table7(ctx, procs=(2,), fractions=fractions).entries == {
            (2, f): compare_pt(cell["rcp", f], cell["dts-merge", f])
            for f in fractions}
        assert "DTS+merge" in {
            ctx.schedule("chol15", 2, "dts-merge", r.capacity).meta["heuristic"]
            for r in rows if r.heuristic == "dts-merge"}


class TestOneParallelExecutor:
    def test_unsupervised_jobs2_runs_supervised_once(self, records,
                                                     monkeypatch):
        from repro.experiments import runtime

        calls = []
        real = runtime.run_supervised

        def counting(*args, **kwargs):
            calls.append(kwargs["policy"])
            return real(*args, **kwargs)

        monkeypatch.setattr(runtime, "run_supervised", counting)
        par = full_sweep(
            ExperimentContext(), jobs=2, workloads=("lu-goodwin",),
            procs=(4, 8), heuristics=("rcp", "mpo"), fractions=(1.0, 0.5),
        )
        assert calls == [None]  # run_supervised applies RuntimePolicy()
        assert par == records

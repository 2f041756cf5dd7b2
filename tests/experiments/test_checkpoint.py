"""Unit tests for the sweep checkpoint journal (no worker pools)."""

import json
import math
import os

import pytest

from repro.experiments.checkpoint import (
    CheckpointJournal,
    grid_fingerprint,
    record_from_json,
    record_to_json,
)
from repro.experiments.sweep import SweepRecord
from repro.fileio import atomic_write_text
from repro.machine.spec import CRAY_T3D, UNIT_MACHINE

INF = float("inf")


def rec(**kw) -> SweepRecord:
    base = dict(
        workload="lu-goodwin", procs=4, heuristic="rcp", fraction=0.5,
        executable=True, capacity=100, min_mem=40, tot=200,
        parallel_time=1.25, pt_increase=0.1, avg_maps=2.5,
    )
    base.update(kw)
    return SweepRecord(**base)


GRID = dict(
    workloads=("lu-goodwin",), procs=(2, 4), heuristics=("rcp",),
    fractions=(1.0, 0.5), reference="rcp", metrics=False, check=False,
    analyze=False, engine="interpreted",
)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.csv"
        atomic_write_text(target, "one\n")
        atomic_write_text(target, "two\n")
        assert target.read_text() == "two\n"

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "out.csv", "data\n")
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("writer", ["to_csv", "chrome_trace", "gantt_svg"])
    def test_files_get_the_mode_open_gives(self, tmp_path, writer):
        """A written artifact is as readable as a plain ``open(path,
        "w")`` makes it, not owner-only like a ``mkstemp`` file."""
        from repro.core import gantt
        from repro.core.viz import gantt_svg
        from repro.experiments.sweep import to_csv
        from repro.graph.paper_example import schedule_c
        from repro.machine import simulate
        from repro.obs import write_chrome_trace

        write = {
            "to_csv": lambda p: to_csv([rec()], p),
            "chrome_trace": lambda p: write_chrome_trace(
                simulate(schedule_c(), capacity=8, metrics=True), p),
            "gantt_svg": lambda p: gantt_svg(gantt(schedule_c()), p),
        }[writer]
        old = os.umask(0o022)
        try:
            with open(tmp_path / "plain", "w"):
                pass
            write(str(tmp_path / "artifact"))
            (tmp_path / "kept").write_text("")
            os.chmod(tmp_path / "kept", 0o640)
            write(str(tmp_path / "kept"))
        finally:
            os.umask(old)
        mode = (tmp_path / "plain").stat().st_mode & 0o777
        assert mode == 0o644
        assert (tmp_path / "artifact").stat().st_mode & 0o777 == mode
        # replacing a file keeps its mode, as writing it in place would
        assert (tmp_path / "kept").stat().st_mode & 0o777 == 0o640


class TestFingerprint:
    def test_stable(self):
        assert grid_fingerprint(CRAY_T3D, **GRID) == grid_fingerprint(
            CRAY_T3D, **GRID
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"workloads": ("chol15",)},
            {"procs": (2,)},
            {"heuristics": ("mpo",)},
            {"fractions": (1.0,)},
            {"reference": "self"},
            {"metrics": True},
            {"check": True},
            {"analyze": True},
            {"bounds": True},
            # the grid order is the record order
            {"workloads": ("lu-goodwin", "chol15")},
        ],
    )
    def test_any_record_shaping_knob_changes_it(self, change):
        base = grid_fingerprint(CRAY_T3D, **GRID)
        assert grid_fingerprint(CRAY_T3D, **{**GRID, **change}) != base

    def test_engine_is_not_hashed(self):
        # Like ``jobs``, the engine changes no record: journals resume
        # across engines.
        base = grid_fingerprint(CRAY_T3D, **GRID)
        assert grid_fingerprint(
            CRAY_T3D, **{**GRID, "engine": "compiled"}) == base

    def test_pre_flip_default_journal_keeps_its_fingerprint(self):
        # The fingerprint of a default (interpreted, no engine_stats)
        # sweep written before the compiled engine became the default.
        assert grid_fingerprint(CRAY_T3D, **GRID) == (
            "becb5016d562904de138c7042eba4e7f3b6b62e132138d4f540daef6b69d0e1b"
        )

    def test_pre_contract_journal_is_not_replayed(self, tmp_path):
        """A --metrics --check --engine-stats journal of engine
        contract 2 (rows with a second engine column) is stale: the
        resumed CSV equals an uninterrupted sweep's, with no replayed
        rows."""
        from dataclasses import replace

        from repro.experiments import ExperimentContext
        from repro.experiments.sweep import full_sweep, to_csv

        grid = {k: v for k, v in GRID.items() if k != "engine"}
        grid.update(metrics=True, check=True)
        want = full_sweep(ExperimentContext(), **grid)
        # Forge the contract-2 journal of this grid: P=2 done, its rows
        # marked so that a replay would show in the CSV.
        fp2 = ("2ff4c395f4954917bdf8906bb3726c28"
               "a78227b2a0f6a5bf7a230905ee28a0c1")
        for engine in ("compiled", "interpreted"):
            assert grid_fingerprint(CRAY_T3D, engine=engine, **grid) != fp2
        old = CheckpointJournal(tmp_path, fp2)
        old.start()
        old.record_group("lu-goodwin", 2, [
            replace(r, avg_maps=-1.0) if r.executable else r
            for r in want if r.procs == 2
        ])
        got = full_sweep(ExperimentContext(), checkpoint=str(tmp_path),
                         resume=True, **grid)
        assert to_csv(got) == to_csv(want)

    def test_harness_faults_change_it(self):
        # A faulted journal can hold failure rows; replaying it into a
        # fault-free resume (or vice versa) would corrupt the sweep.
        from repro.experiments.runtime import HarnessFaultSpec

        base = grid_fingerprint(CRAY_T3D, **GRID)
        faulted = grid_fingerprint(
            CRAY_T3D, **GRID,
            harness_faults=HarnessFaultSpec(kill=(("lu-goodwin", 4),)),
        )
        assert faulted != base
        # ...and different fault specs are themselves distinct.
        other = grid_fingerprint(
            CRAY_T3D, **GRID,
            harness_faults=HarnessFaultSpec(error=(("lu-goodwin", 4),)),
        )
        assert other != faulted

    def test_machine_spec_changes_it(self):
        assert grid_fingerprint(CRAY_T3D, **GRID) != grid_fingerprint(
            UNIT_MACHINE, **GRID
        )


class TestRecordJson:
    def test_roundtrip_plain(self):
        r = rec()
        assert record_from_json(record_to_json(r)) == r

    def test_roundtrip_inf_and_optionals(self):
        r = rec(
            executable=False, parallel_time=INF, pt_increase=INF,
            avg_maps=INF, violations=INF, max_hwm=3.0,
        )
        back = record_from_json(record_to_json(r))
        assert back == r and math.isinf(back.parallel_time)

    def test_roundtrip_failure_fields(self):
        r = rec(
            executable=False, parallel_time=INF, pt_increase=INF,
            avg_maps=INF, status="timeout", error="group exceeded 1s",
            attempts=3, elapsed=4.25,
        )
        assert record_from_json(record_to_json(r)) == r

    def test_retired_empty_field_is_skipped(self):
        # A default sweep's journal keeps its fingerprint when an opt-in
        # column is retired; its rows still hold the column, empty.
        row = {**record_to_json(rec()), "retired_column": None}
        assert record_from_json(row) == rec()
        with pytest.raises(TypeError):
            record_from_json({**row, "retired_column": "metrics"})

    def test_json_is_line_safe(self):
        # One record per JSONL line: the serialised form must not
        # contain newlines.
        assert "\n" not in json.dumps(record_to_json(rec()))


class TestJournal:
    def fp(self, **overrides):
        return grid_fingerprint(CRAY_T3D, **{**GRID, **overrides})

    def test_record_and_complete(self, tmp_path):
        j = CheckpointJournal(tmp_path, self.fp())
        j.start()
        records = [rec(fraction=1.0), rec(fraction=0.5)]
        j.record_group("lu-goodwin", 4, records)
        done = CheckpointJournal(tmp_path, self.fp()).completed()
        assert done == {("lu-goodwin", 4): records}

    def test_stale_fingerprint_invalidates(self, tmp_path):
        j = CheckpointJournal(tmp_path, self.fp())
        j.start()
        j.record_group("lu-goodwin", 4, [rec()])
        other = CheckpointJournal(tmp_path, self.fp(procs=(2,)))
        assert other.completed() == {}
        other.start(resume=True)
        assert other.stale
        # the stale manifest was replaced; the old group is gone
        assert CheckpointJournal(tmp_path, self.fp()).completed() == {}

    def test_resume_keeps_matching_manifest(self, tmp_path):
        j = CheckpointJournal(tmp_path, self.fp())
        j.start()
        j.record_group("lu-goodwin", 4, [rec()])
        j2 = CheckpointJournal(tmp_path, self.fp())
        j2.start(resume=True)
        assert not j2.stale
        assert ("lu-goodwin", 4) in j2.completed()

    def test_fresh_start_resets(self, tmp_path):
        j = CheckpointJournal(tmp_path, self.fp())
        j.start()
        j.record_group("lu-goodwin", 4, [rec()])
        j2 = CheckpointJournal(tmp_path, self.fp())
        j2.start(resume=False)
        assert j2.completed() == {}

    def test_truncated_shard_is_skipped(self, tmp_path):
        j = CheckpointJournal(tmp_path, self.fp())
        j.start()
        j.record_group("lu-goodwin", 2, [rec(procs=2)])
        j.record_group("lu-goodwin", 4, [rec(), rec(fraction=1.0)])
        shard = tmp_path / "lu-goodwin_p4.jsonl"
        shard.write_text(shard.read_text().splitlines()[0] + "\n")
        done = j.completed()
        # the torn group re-runs; the intact one replays
        assert ("lu-goodwin", 4) not in done
        assert ("lu-goodwin", 2) in done

    def test_missing_manifest_is_empty(self, tmp_path):
        assert CheckpointJournal(tmp_path, self.fp()).completed() == {}

    def test_corrupt_manifest_is_empty(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text("{ not json")
        assert CheckpointJournal(tmp_path, self.fp()).completed() == {}

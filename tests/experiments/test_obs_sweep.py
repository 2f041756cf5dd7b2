"""Integration tests: the observed sweep (``obs_dir=``/``progress=``)
and the no-cost-when-off contract."""

import json

import pytest

from repro.experiments import ExperimentContext
from repro.experiments.runtime import HarnessFaultSpec, RuntimePolicy
from repro.experiments.sweep import full_sweep, to_csv
from repro.obs.runtime import SHARD_GLOB
from repro.obs.sweep_trace import load_runtime_shards, merge_obs_dir

GRID = dict(
    workloads=("lu-goodwin",), procs=(2, 4), heuristics=("rcp",),
    fractions=(1.0, 0.5), reference="rcp",
)

FAST = RuntimePolicy(backoff_base=0.05, backoff_jitter=0.0)


def shard_kinds(directory):
    kinds = set()
    for block in load_runtime_shards(directory):
        kinds.update(e["kind"] for e in block["events"])
    return kinds


class TestObservedSweep:
    def test_traced_sweep_is_byte_identical(self, tmp_path):
        plain = full_sweep(
            ExperimentContext(), jobs=2, runtime=FAST, **GRID
        )
        traced = full_sweep(
            ExperimentContext(), jobs=2, runtime=FAST,
            obs_dir=str(tmp_path), **GRID
        )
        assert traced == plain
        assert to_csv(traced) == to_csv(plain)

    def test_shards_carry_the_sweep_lifecycle(self, tmp_path):
        full_sweep(
            ExperimentContext(), jobs=2, runtime=FAST,
            obs_dir=str(tmp_path), **GRID
        )
        shards = load_runtime_shards(tmp_path)
        roles = {b["role"] for b in shards}
        assert "supervisor" in roles and "worker" in roles
        kinds = shard_kinds(tmp_path)
        assert {"sweep_begin", "dispatch", "attempt_start",
                "attempt_finish", "group_done", "engine_counters",
                "sweep_end"} <= kinds

    def test_merged_trace_is_perfetto_loadable(self, tmp_path):
        full_sweep(
            ExperimentContext(), jobs=2, runtime=FAST,
            obs_dir=str(tmp_path), **GRID
        )
        doc = merge_obs_dir(tmp_path)
        assert doc["traceEvents"]
        json.dumps(doc)  # serialisable
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert spans  # worker attempts became spans

    def test_no_obs_dir_means_no_shards(self, tmp_path):
        full_sweep(ExperimentContext(), jobs=2, runtime=FAST, **GRID)
        assert list(tmp_path.glob(SHARD_GLOB)) == []

    def test_engine_counters_event_reports_cache_activity(self, tmp_path):
        full_sweep(
            ExperimentContext(), jobs=2, runtime=FAST, engine="compiled",
            obs_dir=str(tmp_path), **GRID
        )
        counters = [
            e for b in load_runtime_shards(tmp_path) for e in b["events"]
            if e["kind"] == "engine_counters"
        ]
        assert counters
        merged: dict = {}
        for e in counters:
            for k, v in e["counters"].items():
                merged[k] = merged.get(k, 0) + v
        assert merged.get("compiled_runs", 0) > 0


class TestObservedFaultySweep:
    def test_injected_error_leaves_retry_events_and_heals(self, tmp_path):
        faults = HarnessFaultSpec(error=(("lu-goodwin", 4),))
        records = full_sweep(
            ExperimentContext(), jobs=2, runtime=FAST,
            harness_faults=faults, obs_dir=str(tmp_path), **GRID
        )
        assert all(r.status is None for r in records)  # retry healed it
        kinds = shard_kinds(tmp_path)
        assert "retry" in kinds

    @pytest.mark.slow
    def test_killed_worker_leaves_crash_evidence(self, tmp_path):
        faults = HarnessFaultSpec(kill=(("lu-goodwin", 4),))
        records = full_sweep(
            ExperimentContext(), jobs=2, runtime=FAST,
            harness_faults=faults, obs_dir=str(tmp_path), **GRID
        )
        assert all(r.status is None for r in records)
        kinds = shard_kinds(tmp_path)
        assert kinds & {"pool_broken", "crash_quarantine"}

    def test_resume_emits_resume_hits(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        obs = tmp_path / "obs"
        full_sweep(
            ExperimentContext(), jobs=2, runtime=FAST,
            checkpoint=str(ckpt), **GRID
        )
        records = full_sweep(
            ExperimentContext(), jobs=2, runtime=FAST,
            checkpoint=str(ckpt), resume=True, obs_dir=str(obs), **GRID
        )
        assert all(r.status is None for r in records)
        kinds = shard_kinds(obs)
        assert "resume_hit" in kinds
        assert "dispatch" not in kinds  # everything came from the journal

"""Integration tests for the fault-tolerant sweep runtime.

Real worker pools, deterministic harness faults (kill / hang / error via
:class:`HarnessFaultSpec`), checkpoint + resume.  The grid is tiny (one
workload, two (workload, procs) groups) so each supervised sweep costs
well under a second plus pool startup.
"""

import math

import pytest

from repro.experiments import ExperimentContext
from repro.experiments.runtime import (
    HarnessFaultSpec,
    InjectedHarnessError,
    RuntimePolicy,
)
from repro.experiments.sweep import FAILURE_FIELDS, from_csv, full_sweep, to_csv

GRID = dict(
    workloads=("lu-goodwin",),
    procs=(2, 4),
    heuristics=("rcp",),
    fractions=(1.0, 0.5),
)
#: The group the faults target.
TARGET = ("lu-goodwin", 4)

#: Fast-retry policy for fault tests (no timeout pressure).
FAST = RuntimePolicy(backoff_base=0.05, backoff_jitter=0.0)


@pytest.fixture(scope="module")
def plain():
    return full_sweep(ExperimentContext(), **GRID)


class TestPolicy:
    def test_backoff_is_deterministic(self):
        p = RuntimePolicy(seed=7)
        assert p.backoff_s(TARGET, 1) == p.backoff_s(TARGET, 1)

    def test_backoff_grows_exponentially(self):
        p = RuntimePolicy(backoff_base=1.0, backoff_factor=2.0,
                          backoff_jitter=0.0)
        assert p.backoff_s(TARGET, 2) == 2 * p.backoff_s(TARGET, 1)

    def test_jitter_varies_by_group_and_attempt(self):
        p = RuntimePolicy(backoff_base=1.0, backoff_factor=1.0,
                          backoff_jitter=0.5)
        assert p.backoff_s(TARGET, 1) != p.backoff_s(("other", 4), 1)
        assert p.backoff_s(TARGET, 1) != p.backoff_s(TARGET, 2)


class TestHarnessFaultSpec:
    def test_error_fires_on_selected_attempt(self):
        spec = HarnessFaultSpec(error=(TARGET,), on_attempts=(2,))
        spec.apply(TARGET, 1)  # no-op
        with pytest.raises(InjectedHarnessError):
            spec.apply(TARGET, 2)

    def test_empty_on_attempts_means_every_attempt(self):
        spec = HarnessFaultSpec(error=(TARGET,), on_attempts=())
        for attempt in (1, 2, 5):
            with pytest.raises(InjectedHarnessError):
                spec.apply(TARGET, attempt)

    def test_untargeted_group_is_untouched(self):
        HarnessFaultSpec(error=(TARGET,)).apply(("lu-goodwin", 2), 1)


class TestSupervisedFaultFree:
    def test_identical_records_and_csv(self, plain):
        sup = full_sweep(
            ExperimentContext(), jobs=2, runtime=RuntimePolicy(), **GRID
        )
        assert sup == plain
        assert to_csv(sup) == to_csv(plain)

    def test_supervised_single_job(self, plain):
        # Supervision forces the pool path even for jobs=1.
        sup = full_sweep(
            ExperimentContext(), jobs=1, runtime=RuntimePolicy(), **GRID
        )
        assert sup == plain


class TestKill:
    def test_kill_then_recover(self, plain):
        faults = HarnessFaultSpec(kill=(TARGET,), on_attempts=(1,))
        rec = full_sweep(
            ExperimentContext(), jobs=2, runtime=FAST,
            harness_faults=faults, **GRID,
        )
        assert rec == plain  # retried group converges; no failure columns

    def test_kill_every_attempt_records_cell_failures(self, plain):
        faults = HarnessFaultSpec(kill=(TARGET,), on_attempts=())
        policy = RuntimePolicy(max_attempts=2, backoff_base=0.05,
                               backoff_jitter=0.0)
        rec = full_sweep(
            ExperimentContext(), jobs=2, runtime=policy,
            harness_faults=faults, **GRID,
        )
        assert len(rec) == len(plain)
        failed = [r for r in rec if r.status is not None]
        ok = [r for r in rec if r.status is None]
        # every cell of the killed group failed; the bystander group is
        # bit-identical to the plain sweep
        assert {(r.workload, r.procs) for r in failed} == {TARGET}
        assert all(r.status == "crashed" and r.attempts == 2 for r in failed)
        assert all(not r.executable and math.isinf(r.parallel_time)
                   for r in failed)
        assert ok == [r for r in plain if (r.workload, r.procs) != TARGET]

    def test_failure_columns_roundtrip(self, plain):
        faults = HarnessFaultSpec(kill=(TARGET,), on_attempts=())
        policy = RuntimePolicy(max_attempts=1)
        rec = full_sweep(
            ExperimentContext(), jobs=2, runtime=policy,
            harness_faults=faults, **GRID,
        )
        text = to_csv(rec)
        assert text.splitlines()[0].endswith(",".join(FAILURE_FIELDS))
        assert from_csv(text) == rec


class TestHangAndTimeout:
    def test_hang_then_recover(self, plain):
        faults = HarnessFaultSpec(hang=(TARGET,), on_attempts=(1,),
                                  hang_s=10.0)
        policy = RuntimePolicy(timeout=1.5, backoff_base=0.05,
                               backoff_jitter=0.0)
        rec = full_sweep(
            ExperimentContext(), jobs=2, runtime=policy,
            harness_faults=faults, **GRID,
        )
        assert rec == plain

    def test_persistent_hang_times_out(self):
        faults = HarnessFaultSpec(hang=(TARGET,), on_attempts=(),
                                  hang_s=10.0)
        policy = RuntimePolicy(timeout=1.0, max_attempts=1)
        rec = full_sweep(
            ExperimentContext(), jobs=2, runtime=policy,
            harness_faults=faults, **GRID,
        )
        failed = [r for r in rec if r.status is not None]
        assert failed and all(r.status == "timeout" for r in failed)
        assert {(r.workload, r.procs) for r in failed} == {TARGET}


class TestInjectedError:
    def test_retryable_error_exhausts_attempts(self):
        faults = HarnessFaultSpec(error=(TARGET,), on_attempts=())
        policy = RuntimePolicy(max_attempts=2, backoff_base=0.05,
                               backoff_jitter=0.0)
        rec = full_sweep(
            ExperimentContext(), jobs=2, runtime=policy,
            harness_faults=faults, **GRID,
        )
        failed = [r for r in rec if r.status is not None]
        assert failed
        assert all(
            r.status == "error"
            and r.attempts == 2
            and "InjectedHarnessError" in r.error
            for r in failed
        )

    def test_error_then_recover(self, plain):
        faults = HarnessFaultSpec(error=(TARGET,), on_attempts=(1,))
        rec = full_sweep(
            ExperimentContext(), jobs=2, runtime=FAST,
            harness_faults=faults, **GRID,
        )
        assert rec == plain


def _fp(engine="compiled"):
    from repro.experiments.checkpoint import grid_fingerprint

    return grid_fingerprint(
        ExperimentContext().spec, GRID["workloads"], GRID["procs"],
        GRID["heuristics"], GRID["fractions"], "rcp", False, False, False,
        engine,
    )


class TestCheckpointResume:
    def test_interrupted_then_resumed_is_byte_identical(self, plain, tmp_path):
        ckpt = tmp_path / "ckpt"
        faults = HarnessFaultSpec(kill=(TARGET,), on_attempts=())
        first = full_sweep(
            ExperimentContext(), jobs=2, runtime=RuntimePolicy(max_attempts=1),
            harness_faults=faults, checkpoint=str(ckpt), **GRID,
        )
        assert any(r.status is not None for r in first)
        # resume without faults: journalled group replays, killed group
        # re-runs, output matches an uninterrupted sweep byte for byte
        resumed = full_sweep(
            ExperimentContext(), jobs=2, checkpoint=str(ckpt), resume=True,
            **GRID,
        )
        assert resumed == plain
        assert to_csv(resumed) == to_csv(plain)

    def test_fully_journalled_resume_runs_nothing(self, plain, tmp_path):
        from repro.experiments.checkpoint import (
            CheckpointJournal,
            grid_fingerprint,
        )

        ckpt = tmp_path / "ckpt"
        ctx = ExperimentContext()
        full_sweep(ctx, jobs=2, checkpoint=str(ckpt), **GRID)
        fp = grid_fingerprint(
            ctx.spec, GRID["workloads"], GRID["procs"], GRID["heuristics"],
            GRID["fractions"], "rcp", False, False, False, "interpreted",
        )
        assert len(CheckpointJournal(ckpt, fp).completed()) == 2
        again = full_sweep(
            ExperimentContext(), jobs=2, checkpoint=str(ckpt), resume=True,
            **GRID,
        )
        assert again == plain

    def test_interpreted_journal_resumes_under_compiled_default(
        self, plain, tmp_path
    ):
        # A journal interrupted under engine="interpreted" (the default
        # before the flip) resumes under the compiled default, and the
        # CSV is byte-identical to an uninterrupted sweep.
        ckpt = tmp_path / "ckpt"
        first = full_sweep(
            ExperimentContext(), jobs=2, runtime=RuntimePolicy(max_attempts=1),
            harness_faults=HarnessFaultSpec(kill=(TARGET,), on_attempts=()),
            checkpoint=str(ckpt), engine="interpreted", **GRID,
        )
        assert any(r.status is not None for r in first)
        resumed = full_sweep(
            ExperimentContext(), jobs=2, checkpoint=str(ckpt), resume=True,
            **GRID,
        )
        assert to_csv(resumed) == to_csv(plain)
        from repro.experiments.checkpoint import CheckpointJournal

        assert len(CheckpointJournal(ckpt, _fp()).completed()) == 2

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError, match="checkpoint"):
            full_sweep(ExperimentContext(), resume=True, **GRID)


class TestShippedProblems:
    def test_unpicklable_problem_fails_fast(self):
        ctx = ExperimentContext()
        ctx.register("bad", lambda: None)  # lambdas cannot be pickled
        with pytest.raises(ValueError, match="not picklable"):
            full_sweep(ctx, jobs=2, workloads=("bad", "lu-goodwin"),
                       procs=(2, 4), heuristics=("rcp",), fractions=(1.0,))

    def test_unused_registration_is_not_shipped(self, plain):
        # An unpicklable problem outside the grid must not poison the
        # sweep: only workloads named in the grid are shipped.
        ctx = ExperimentContext()
        ctx.register("bad", lambda: None)
        assert full_sweep(ctx, jobs=2, **GRID) == plain

    def test_shipped_problems_filters(self):
        ctx = ExperimentContext()
        ctx.register("extra", "any picklable payload")
        assert ctx.shipped_problems(("lu-goodwin",)) == {}
        assert ctx.shipped_problems(("extra",)) == {"extra": "any picklable payload"}

"""Fault-injection layer: knob validation, determinism, identity fast
path, effect on makespan, and the deliberate slot-overwrite detection."""

import math

import pytest

from repro.conformance import FAULT_KINDS, FaultSpec, fault_preset, run_check
from repro.conformance.check import overwrite_demo, overwrite_scenario
from repro.core.rcp import rcp_order
from repro.errors import FaultSpecError, ReproError, SimulationError
from repro.graph.paper_example import (
    paper_assignment,
    paper_example_graph,
    paper_placement,
)
from repro.machine.simulator import Simulator
from repro.machine.spec import UNIT_MACHINE


@pytest.fixture(scope="module")
def paper_schedule():
    g = paper_example_graph()
    pl = paper_placement()
    return rcp_order(g, pl, paper_assignment(g, pl))


class TestFaultSpec:
    def test_identity_is_inactive(self):
        assert not FaultSpec().active

    def test_tighten_is_sim_inactive(self):
        spec = fault_preset("tighten")
        assert not spec.active  # harness-level knob only
        assert spec.capacity_fraction == 0.0

    @pytest.mark.parametrize(
        "kind", [k for k in FAULT_KINDS if k != "tighten"]
    )
    def test_sim_level_presets_are_active(self, kind):
        assert fault_preset(kind).active

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            fault_preset("gamma-rays")
        with pytest.raises(FaultSpecError):
            fault_preset("gamma-rays")

    @pytest.mark.parametrize("field,value", [
        ("put_latency_factor", -3.0),
        ("put_jitter", -5.0),
        ("package_consume_factor", math.nan),
        ("package_consume_jitter", -0.5),
        ("slowdown", -1.0),
        ("slowdown", math.inf),
        ("put_jitter", math.inf),
    ])
    def test_bad_knob_rejected(self, field, value):
        """A knob that would schedule an event in the past, or run to
        an infinite PT, is a ReproError naming the field."""
        with pytest.raises(FaultSpecError, match=f"FaultSpec.{field}") as ei:
            FaultSpec(**{field: value})
        assert isinstance(ei.value, ReproError)
        assert isinstance(ei.value, ValueError)
        assert ei.value.field == field

    @pytest.mark.parametrize("field", [
        "put_latency_factor", "put_jitter", "package_consume_factor",
        "package_consume_jitter", "slowdown",
    ])
    def test_zero_knob_accepted(self, field):
        assert getattr(FaultSpec(**{field: 0.0}), field) == 0.0

    @pytest.mark.parametrize("slow_procs", [(3,), (-1,), (0, 7)])
    def test_slow_procs_outside_the_machine_rejected(
            self, paper_schedule, slow_procs):
        spec = FaultSpec(slowdown=2.0, slow_procs=slow_procs)
        with pytest.raises(SimulationError, match="slow_procs"):
            Simulator(paper_schedule, spec=UNIT_MACHINE, faults=spec)

    def test_injector_scopes_rng_per_run(self):
        spec = fault_preset("jitter", seed=5)
        a, b = spec.injector(), spec.injector()
        seq_a = [a.put_delay(0, 1, 1.0) for _ in range(5)]
        seq_b = [b.put_delay(0, 1, 1.0) for _ in range(5)]
        assert seq_a == seq_b
        assert any(x > 0 for x in seq_a)

    def test_slow_procs_scoping(self):
        fi = FaultSpec(slowdown=3.0, slow_procs=(1,)).injector()
        assert fi.exe_factor(1) == 3.0
        assert fi.exe_factor(0) == 1.0
        fi_all = FaultSpec(slowdown=2.0).injector()
        assert fi_all.exe_factor(0) == fi_all.exe_factor(7) == 2.0


class TestFaultedRuns:
    def pt(self, sched, faults=None):
        return Simulator(sched, spec=UNIT_MACHINE, faults=faults).run().parallel_time

    def test_inactive_spec_changes_nothing(self, paper_schedule):
        assert self.pt(paper_schedule, FaultSpec()) == self.pt(paper_schedule)

    def test_faulted_runs_are_deterministic(self, paper_schedule):
        spec = fault_preset("consume", seed=11)
        assert self.pt(paper_schedule, spec) == self.pt(paper_schedule, spec)

    def test_delay_inflates_makespan(self, paper_schedule):
        assert self.pt(paper_schedule, fault_preset("delay")) > self.pt(paper_schedule)

    def test_jitter_seed_changes_outcome(self, paper_schedule):
        a = self.pt(paper_schedule, fault_preset("jitter", seed=0))
        b = self.pt(paper_schedule, fault_preset("jitter", seed=1))
        assert a != b

    def test_slowdown_inflates_makespan(self, paper_schedule):
        assert self.pt(paper_schedule, fault_preset("slow")) > self.pt(paper_schedule)

    def test_faulted_run_stays_clean(self, paper_schedule):
        for kind in ("delay", "jitter", "consume", "slow", "tighten"):
            r = run_check(paper_schedule, faults=fault_preset(kind))
            assert r.ok, f"{kind}: {r.summary()}"


class TestOverwriteDetection:
    def test_scenario_is_clean_without_the_fault(self):
        plan = overwrite_scenario()
        res = Simulator(capacity=plan.capacity, plan=plan).run()
        assert res.parallel_time > 0

    def test_overwrite_detected_with_cycle_witness(self):
        r = overwrite_demo()
        assert not r.ok
        assert [v.invariant for v in r.violations] == ["slot-overwrite"]
        assert r.deadlock is not None
        assert "cycle: P0 -> P1 -> P0" in r.deadlock
        assert "missing=['data d1@p1']" in r.deadlock

    def test_overwrite_demo_is_deterministic(self):
        assert overwrite_demo().deadlock == overwrite_demo().deadlock

"""Certified static lower bounds (`repro.analysis.bounds`).

The acceptance anchors: on the paper example and `etree15` the static
PT/MIN_MEM bounds equal the branch-and-bound solver's proved optima
(gap 0), the pure-Python and numpy query paths agree exactly, and the
SA4xx pass emits the advisory on clean schedules and hard errors only
on corrupt reported numbers.
"""

import types

import pytest

import repro.analysis.bounds as bounds_mod
from repro.analysis import (
    analyze_schedule,
    bounds_pass,
    certified_bounds,
    memory_bounds,
    schedule_bounds,
    time_bounds,
)
from repro.core.liveness import analyze_memory
from repro.core.schedule import CommModel, UNIT_COMM, gantt
from repro.experiments import ExperimentContext
from repro.graph.paper_example import (
    paper_assignment,
    paper_example_graph,
    paper_placement,
    schedule_b,
    schedule_c,
)


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext()


@pytest.fixture(scope="module")
def paper_bounds():
    s = schedule_c()
    return certified_bounds(s.graph, s.placement, s.assignment)


class TestPaperOptima:
    """Gap 0 against the PR 9 proved optima (16.0 / 7)."""

    def test_pt_bound_equals_the_proved_optimum(self, paper_bounds):
        assert paper_bounds.pt.value == pytest.approx(16.0)

    def test_mem_bound_equals_the_proved_optimum(self, paper_bounds):
        assert paper_bounds.min_mem.value == pytest.approx(7.0)

    def test_bounds_carry_certificates(self, paper_bounds):
        assert paper_bounds.pt.method == "processor-window"
        assert paper_bounds.min_mem.method == "residency-hold"
        assert "P1" in paper_bounds.pt.certificate
        text = str(paper_bounds.min_mem)
        assert text.startswith("min_mem >= 7 [residency-hold]")
        described = paper_bounds.describe()
        assert "certified:" in described and "candidate:" in described

    def test_every_candidate_is_dominated_by_the_certified_bound(
        self, paper_bounds
    ):
        for c in paper_bounds.candidates:
            best = (
                paper_bounds.pt if c.metric == "pt" else paper_bounds.min_mem
            )
            assert c.value <= best.value + 1e-12


class TestEtreeOptima:
    """etree15 proved MIN_MEM optima: 8224 (P=2) and 4328 (P=4)."""

    @pytest.mark.parametrize("p,opt", [(2, 8224), (4, 4328)])
    def test_mem_bound_matches_the_proved_optimum(self, ctx, p, opt):
        s = ctx.schedule("etree15", p, "rcp")
        bs = certified_bounds(s.graph, s.placement, s.assignment)
        assert bs.min_mem.value == pytest.approx(opt)

    def test_bounds_cached_per_context_cell(self, ctx):
        a = ctx.bounds_for("etree15", 2, "rcp")
        b = ctx.bounds_for("etree15", 2, "rcp")
        assert a is b


class TestSoundness:
    """A certified bound is never beaten by any real schedule."""

    @pytest.mark.parametrize("sched_fn", [schedule_b, schedule_c])
    def test_paper_schedules_respect_both_bounds(self, sched_fn):
        s = sched_fn()
        bs = certified_bounds(s.graph, s.placement, s.assignment)
        assert gantt(s).makespan >= bs.pt.value - 1e-9
        assert analyze_memory(s).min_mem >= bs.min_mem.value - 1e-9

    @pytest.mark.parametrize("h", ["rcp", "mpo", "dts", "tree"])
    def test_etree_heuristics_respect_both_bounds(self, ctx, h):
        s = ctx.schedule("etree15", 2, h)
        comm = ctx.spec.comm_model()
        bs = schedule_bounds(s, comm=comm)
        assert gantt(s, comm).makespan >= bs.pt.value - 1e-9
        assert analyze_memory(s).min_mem >= bs.min_mem.value - 1e-9

    def test_nonunit_comm_raises_the_time_bound(self):
        s = schedule_c()
        slow = CommModel(latency=5.0, byte_time=1.0)
        unit = certified_bounds(s.graph, s.placement, s.assignment, UNIT_COMM)
        heavy = certified_bounds(s.graph, s.placement, s.assignment, slow)
        assert heavy.pt.value >= unit.pt.value
        assert heavy.min_mem.value == unit.min_mem.value  # comm-free


class TestPathAgreement:
    """Pure-Python (< _NUMPY_MIN_TASKS) and numpy paths agree exactly."""

    def _both(self, graph, placement, assignment, monkeypatch,
              comm=UNIT_COMM):
        monkeypatch.setattr(bounds_mod, "_NUMPY_MIN_TASKS", 0)
        via_numpy = certified_bounds(graph, placement, assignment, comm)
        monkeypatch.setattr(bounds_mod, "_NUMPY_MIN_TASKS", 10**9)
        via_pure = certified_bounds(graph, placement, assignment, comm)
        return via_numpy, via_pure

    def test_paper_example(self, monkeypatch):
        s = schedule_c()
        a, b = self._both(s.graph, s.placement, s.assignment, monkeypatch)
        assert a == b

    @pytest.mark.parametrize("p", [2, 4])
    def test_etree15(self, ctx, p, monkeypatch):
        s = ctx.schedule("etree15", p, "rcp")
        a, b = self._both(s.graph, s.placement, s.assignment, monkeypatch)
        assert a.pt.value == b.pt.value
        assert a.pt.method == b.pt.method
        assert a.min_mem.value == b.min_mem.value
        assert a.min_mem.method == b.min_mem.method

    @pytest.mark.parametrize("p", [2, 4, 8, 32])
    def test_etree15_spec_comm(self, ctx, p, monkeypatch):
        # Non-zero message costs: the forest and row recurrences must
        # associate their sums identically, not just agree under UNIT.
        s = ctx.schedule("etree15", p, "rcp")
        a, b = self._both(s.graph, s.placement, s.assignment, monkeypatch,
                          ctx.spec.comm_model())
        assert a == b

    def test_deterministic(self):
        s = schedule_c()
        runs = [
            certified_bounds(s.graph, s.placement, s.assignment)
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]


class TestPublicWrappers:
    def test_time_and_memory_bounds_split_the_set(self):
        s = schedule_c()
        t = time_bounds(s.graph, s.assignment, s.placement.num_procs)
        m = memory_bounds(s.graph, s.placement, s.assignment)
        assert {b.metric for b in t} == {"pt"}
        assert {b.metric for b in m} == {"min_mem"}
        full = certified_bounds(s.graph, s.placement, s.assignment)
        assert max(b.value for b in t) == full.pt.value
        assert max(b.value for b in m) == full.min_mem.value

    def test_empty_graph(self):
        from repro.graph.builder import GraphBuilder
        from repro.core.placement import Placement

        g = GraphBuilder().build()
        bs = certified_bounds(g, Placement(1, {}), {})
        assert bs.pt.value == 0.0
        assert bs.min_mem.value == 0.0


class TestSA4xxPass:
    def test_clean_schedule_gets_the_advisory_only(self):
        report = analyze_schedule(schedule_c(), capacity=8, bounds=True)
        assert report.ok
        codes = [d.rule for d in report.diagnostics]
        assert "SA401" in codes
        assert "SA402" not in codes and "SA403" not in codes

    def test_opt_out_by_default(self):
        report = analyze_schedule(schedule_c(), capacity=8)
        assert all(not d.rule.startswith("SA4") for d in report.diagnostics)

    def test_sa403_fires_on_an_undercutting_profile(self):
        s = schedule_c()
        ctx = types.SimpleNamespace(
            schedule=s,
            profile=types.SimpleNamespace(min_mem=1),
            comm=UNIT_COMM,
        )
        diags = bounds_pass(ctx)
        [d] = [d for d in diags if d.rule == "SA403"]
        assert "undercuts" in d.message
        assert "residency-hold" in d.witness

    def test_sa402_fires_on_a_corrupt_gantt(self, monkeypatch):
        s = schedule_c()
        monkeypatch.setattr(
            bounds_mod, "gantt",
            lambda *a, **kw: types.SimpleNamespace(makespan=1.0),
        )
        ctx = types.SimpleNamespace(
            schedule=s,
            profile=types.SimpleNamespace(min_mem=7),
            comm=UNIT_COMM,
        )
        diags = bounds_pass(ctx)
        [d] = [d for d in diags if d.rule == "SA402"]
        assert "undercuts" in d.message

    def test_exact_equality_does_not_false_positive(self):
        # The paper schedules sit exactly on both bounds; the relative
        # slack must keep SA402/SA403 silent there.
        s = schedule_c()
        ctx = types.SimpleNamespace(
            schedule=s,
            profile=analyze_memory(s),
            comm=UNIT_COMM,
        )
        codes = {d.rule for d in bounds_pass(ctx)}
        assert codes == {"SA401"}

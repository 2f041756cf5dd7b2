"""Certified static lower bounds (`repro.analysis.bounds`).

The acceptance anchors: on the paper example and `etree15` the static
PT/MIN_MEM bounds equal the branch-and-bound solver's proved optima
(gap 0), every ``BoundSet`` equals its pin, the time bounds equal the
generic graph levels exactly, a bad mapping raises a named error, and
the SA4xx pass emits the advisory on clean schedules and hard errors
only on corrupt reported numbers.
"""

import json
import pathlib
import types

import pytest

import repro.analysis.bounds as bounds_mod
from repro.analysis import (
    Bound,
    analyze_schedule,
    bounds_pass,
    certified_bounds,
    memory_bounds,
    schedule_bounds,
    time_bounds,
)
from repro.core.liveness import analyze_memory
from repro.core.placement import Placement
from repro.core.schedule import CommModel, UNIT_COMM, gantt
from repro.errors import PlacementError, SchedulingError
from repro.experiments import ExperimentContext
from repro.graph.analysis import (
    b_levels,
    mapped_edge_cost,
    size_edge_cost,
    t_levels,
)
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

    def test_bounds_cached_per_context_cell(self, monkeypatch):
        """One ``schedule_bounds`` call per (group, heuristic), whatever
        the fractions; ``dts-merge`` cells of two capacities included."""
        import repro.analysis

        calls = []
        real = repro.analysis.schedule_bounds

        def counting(schedule, comm=UNIT_COMM):
            calls.append(schedule.meta["heuristic"])
            return real(schedule, comm)

        monkeypatch.setattr(repro.analysis, "schedule_bounds", counting)
        ctx = ExperimentContext()
        heuristics = ("rcp", "dts-merge", "etf")
        for h in heuristics:
            for f in (1.0, 0.75, 0.5):
                ctx.run_cell("etree15", 2, h, f, reference="rcp",
                             columns=("bounds",))
        assert len(calls) == len(heuristics)
        a = ctx.bounds_for("etree15", 2, "rcp")
        assert ctx.bounds_for("etree15", 2, "rcp") is a
        assert len(calls) == len(heuristics)

    def test_etf_rows_take_the_bounds_of_its_own_mapping(self, ctx):
        """ETF derives its own mapping, so its bounds differ from every
        other heuristic's: the reason the context keys bounds per
        heuristic."""
        rows = {h: ctx.run_cell("etree15", 2, h, 0.75, reference="rcp",
                                columns=("bounds",))
                for h in ("rcp", "mpo", "dts", "dts-merge", "etf", "tree")}
        etf = rows.pop("etf")
        assert (etf.pt_bound, etf.mem_bound) == (
            pytest.approx(4.727e-05, rel=1e-3), 9360)
        for r in rows.values():
            assert (r.pt_bound, r.mem_bound) == (
                pytest.approx(5.060e-04, rel=1e-3), 8224)

    def test_bounds_computed_once_per_mapping(self, ctx):
        """The bounds ignore the orders: every heuristic's schedule of
        one mapping gets the one memoised ``BoundSet``, per comm model."""
        comm = ctx.spec.comm_model()
        for c in (UNIT_COMM, comm):
            got = [schedule_bounds(ctx.schedule("etree15", 4, h), c)
                   for h in ("rcp", "mpo", "dts")]
            assert got[0] is got[1] is got[2]
        s = ctx.schedule("etree15", 4, "rcp")
        assert schedule_bounds(s, comm) is not schedule_bounds(s, UNIT_COMM)


def test_bounds_prove_the_optima_where_the_analyzer_is_clean(ctx):
    """Both proved-optimum cells under the comm model each runs with.

    The paper example uses unit communication, ``etree15`` the
    context's own model; on each the full static analyzer passes and
    the certified bounds equal the branch-and-bound optima.
    """
    cells = [
        (schedule_c(), UNIT_COMM, {"pt": 16.0, "min_mem": 7.0}),
        (ctx.schedule("etree15", 2, "rcp"), ctx.spec.comm_model(),
         {"min_mem": 8224.0}),
    ]
    for sched, comm, optima in cells:
        assert analyze_schedule(sched, fraction=1.0).ok
        bs = certified_bounds(
            sched.graph, sched.placement, sched.assignment, comm
        )
        got = {m: (bs.pt if m == "pt" else bs.min_mem).value for m in optima}
        assert got == pytest.approx(optima)


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


#: Every ``BoundSet`` field of the pinned inputs, as the bounds computed
#: them when the pin was taken (regenerate with ``PYTHONPATH=src python
#: tests/analysis/test_bounds.py``; a diff is a change of a certified
#: value, method, certificate or tie-break).
PIN_PATH = pathlib.Path(__file__).with_name("data") / "bounds_pin.json"
PIN_WORKLOADS = ("chol15", "lu-goodwin", "etree15")
PIN_PROCS = (2, 8, 32)


def _bound_row(b):
    return [b.metric, b.value, b.method, b.certificate]


def _boundset_rows(bs):
    return {
        "pt": _bound_row(bs.pt),
        "min_mem": _bound_row(bs.min_mem),
        "candidates": [_bound_row(b) for b in bs.candidates],
    }


def _forest_example():
    """Two equal chains ``X1 -> X2 -> X3`` (X in A, B) joined at a root
    on P1.  X1 and X3 both touch a P1-owned object on P0, so X2 is
    forced to hold it: two tied forced-span candidates pin that
    bound's tie-break."""
    from repro.graph.taskgraph import TaskGraph
    from repro.graph.tasks import Task

    g = TaskGraph()
    for name, size in (("x", 4), ("v", 4), ("ya", 1), ("za", 1),
                       ("yb", 1), ("zb", 1), ("wa", 2), ("wb", 3)):
        g.add_object(name, size)
    for c, far in (("a", "x"), ("b", "v")):
        g.add_task(Task(f"{c.upper()}1", (far,), (f"y{c}",), 2.0))
        g.add_task(Task(f"{c.upper()}2", (f"y{c}",), (f"z{c}",), 1.0))
        g.add_task(Task(f"{c.upper()}3", (far, f"z{c}"), (f"w{c}",), 3.0))
        g.add_edge(f"{c.upper()}1", f"{c.upper()}2", f"y{c}")
        g.add_edge(f"{c.upper()}2", f"{c.upper()}3", f"z{c}")
    g.add_task(Task("R", ("wa", "wb"), (), 1.0))
    g.add_edge("A3", "R", "wa")
    g.add_edge("B3", "R", "wb")
    owner = {o: 0 for o in ("ya", "za", "yb", "zb", "wa")}
    owner.update(x=1, v=1, wb=1)
    assignment = {t: 0 for t in ("A1", "A2", "A3", "B1", "B2", "B3")}
    assignment["R"] = 1
    return g.freeze(), Placement(2, owner), assignment


def _pinned_inputs():
    """``(label, graph, placement, assignment, comm)`` of every pinned
    input: the paper example and a small forest under unit costs, then
    each shipped workload at each P under the spec comm model."""
    s = schedule_c()
    yield "paper", s.graph, s.placement, s.assignment, UNIT_COMM
    yield ("forest", *_forest_example(), CommModel(latency=0.5))
    context = ExperimentContext()
    comm = context.spec.comm_model()
    for key in PIN_WORKLOADS:
        for p in PIN_PROCS:
            placement, assignment = context.mapping(key, p)
            yield (f"{key}/P{p}", context.problem(key).graph, placement,
                   assignment, comm)
            context.release(key, p)


def _current_pin():
    return {
        label: _boundset_rows(certified_bounds(g, pl, asg, comm))
        for label, g, pl, asg, comm in _pinned_inputs()
    }


class TestBoundSetPin:
    """``BoundSet`` equality, certificates included, against the pin."""

    @pytest.fixture(scope="class")
    def current(self):
        return _current_pin()

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads(PIN_PATH.read_text())

    def test_pinned_inputs_are_covered(self, current, pinned):
        assert list(current) == list(pinned)

    @pytest.mark.parametrize("label", ["paper", "forest"] + [
        f"{key}/P{p}" for key in PIN_WORKLOADS for p in PIN_PROCS])
    def test_boundset_matches_the_pin(self, current, pinned, label):
        assert current[label] == pinned[label]

    def test_pin_keeps_the_proved_optima(self, pinned):
        assert pinned["paper"]["pt"][1] == 16.0
        assert pinned["paper"]["min_mem"][1] == 7.0
        assert pinned["etree15/P2"]["min_mem"][1] == 8224.0

    def test_forest_pins_tied_forced_spans(self):
        g, pl, asg = _forest_example()
        forced = [b for b in memory_bounds(g, pl, asg)
                  if b.method == "forced-span"]
        assert len(forced) == 1 and forced[0].value == 10.0


class TestPathAgreement:
    """The critical-path and processor-window bounds equal the generic
    levels of :mod:`repro.graph.analysis` under ``mapped_edge_cost(
    size_edge_cost)``, float for float."""

    def _both(self, graph, placement, assignment, comm=UNIT_COMM):
        bs = certified_bounds(graph, placement, assignment, comm)
        got = {b.method: b for b in bs.candidates
               if b.method in ("critical-path", "processor-window")}
        cost = mapped_edge_cost(assignment, size_edge_cost(
            graph, comm.latency, comm.byte_time))
        bl, tl = b_levels(graph, cost), t_levels(graph, cost)
        topo = graph.topological_order()
        top = max(topo, key=bl.__getitem__)  # first maximum
        want = {"critical-path": Bound(
            "pt", bl[top], "critical-path",
            f"longest mapped path starts at task {top!r}")}
        nprocs = placement.num_procs
        work = [0.0] * nprocs
        for t in topo:  # summed in topological order
            work[assignment[t]] += graph.task(t).weight
        best = None
        for p in range(nprocs):
            on_p = [t for t in topo if assignment[t] == p]
            if not on_p:
                continue
            head = min(tl[t] for t in on_p)
            tail = min(bl[t] - graph.task(t).weight for t in on_p)
            win = head + work[p] + tail
            if best is None or win > best.value:
                best = Bound(
                    "pt", win, "processor-window",
                    f"P{p}: min top {head:g} + work {work[p]:g} + "
                    f"min tail {tail:g}")
        want["processor-window"] = best
        return got, want

    def test_paper_example(self):
        s = schedule_c()
        a, b = self._both(s.graph, s.placement, s.assignment)
        assert a == b

    @pytest.mark.parametrize("p", [2, 4])
    def test_etree15(self, ctx, p):
        s = ctx.schedule("etree15", p, "rcp")
        a, b = self._both(s.graph, s.placement, s.assignment)
        assert a == b

    @pytest.mark.parametrize("p", [2, 4, 8, 32])
    def test_etree15_spec_comm(self, ctx, p):
        # Non-zero message costs: the sums must associate exactly as
        # the generic levels do, not just agree under UNIT.
        s = ctx.schedule("etree15", p, "rcp")
        a, b = self._both(s.graph, s.placement, s.assignment,
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

        g = GraphBuilder().build()
        bs = certified_bounds(g, Placement(1, {}), {})
        assert bs.pt.value == 0.0
        assert bs.min_mem.value == 0.0


def _unassigned(asg, owner):
    asg.pop("T[1]")


def _off_machine(asg, owner):
    asg["T[1]"] = 7


def _negative(asg, owner):
    asg["T[1]"] = -1


def _unowned(asg, owner):
    del owner["d1"]


class TestBadMappings:
    """A mapping the bounds cannot read fails with a named error, never
    a bare ``KeyError``/``IndexError`` or a silently wrong bound."""

    @pytest.mark.parametrize("corrupt,error,match", [
        (_unassigned, SchedulingError, "no processor assignment"),
        (_off_machine, SchedulingError, r"processor 7, outside \[0, 2\)"),
        (_negative, SchedulingError, r"processor -1, outside \[0, 2\)"),
        (_unowned, PlacementError, "'d1' has no owner"),
    ], ids=["unassigned", "off-machine", "negative", "unowned"])
    def test_entry_points_raise_named_errors(self, corrupt, error, match):
        s = schedule_c()
        asg, owner = dict(s.assignment), dict(s.placement.owner)
        corrupt(asg, owner)
        pl = Placement(s.placement.num_procs, owner)
        with pytest.raises(error, match=match):
            certified_bounds(s.graph, pl, asg)
        with pytest.raises(error, match=match):
            memory_bounds(s.graph, pl, asg)
        if error is SchedulingError:
            with pytest.raises(error, match=match):
                time_bounds(s.graph, asg, pl.num_procs)


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


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(_current_pin(), indent=1) + "\n")

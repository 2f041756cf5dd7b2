"""Unit tests of the invariant catalogue, checker hooks, cycle finder,
deadlock witness and failure-trace export."""

import json

import pytest

from repro.conformance import (
    INVARIANTS,
    InvariantChecker,
    check_batch,
    deadlock_witness,
    find_cycle,
    run_check,
    violation_trace,
    write_violation_trace,
)
from repro.core.rcp import rcp_order
from repro.errors import DeadlockError, InvariantViolationError
from repro.graph.paper_example import (
    paper_assignment,
    paper_example_graph,
    paper_placement,
)
from repro.machine.reference import name_tables
from repro.machine.simulator import CompiledSchedule


@pytest.fixture(scope="module")
def paper_compiled():
    g = paper_example_graph()
    pl = paper_placement()
    return CompiledSchedule(rcp_order(g, pl, paper_assignment(g, pl)))


def make_checker(paper_compiled, **kw):
    c = InvariantChecker(paper_compiled, **kw)
    c.on_run_begin(0.0, 2, 10, True)
    return c


class TestCatalogue:
    def test_six_invariants_with_paper_anchors(self):
        assert set(INVARIANTS) == {
            "input-residency", "landing-space", "slot-overwrite",
            "capacity", "suspended-drain", "termination",
        }
        for anchor, statement in INVARIANTS.values():
            assert anchor and statement

    def test_violation_str_cites_the_anchor(self, paper_compiled):
        c = make_checker(paper_compiled)
        c.on_alloc(1.0, 0, "d1", 99, 99)
        (v,) = c.violations
        assert v.invariant == "capacity"
        assert "Definitions 5/6" in str(v)


class TestCheckerHooks:
    def test_clean_paper_run(self, paper_compiled):
        r = run_check(paper_compiled.schedule, compiled=paper_compiled)
        assert r.ok
        assert r.violations == []
        assert r.checker.ok
        assert len(r.checker.window) > 0
        assert r.checker.report() == "all invariants held"

    def test_input_residency_flagged(self, paper_compiled):
        c = make_checker(paper_compiled)
        # T[1,3] reads d1 from P1's unit T[1]; nothing arrived yet.
        task = next(
            t for t, reqs in name_tables(paper_compiled).needs.items()
            if any(r[0] == "data" for r in reqs)
        )
        c.on_exe(1.0, 2.0, 0, task)
        assert any(v.invariant == "input-residency" for v in c.violations)

    def test_residency_satisfied_after_arrival(self, paper_compiled):
        c = make_checker(paper_compiled)
        task = next(
            t for t, reqs in name_tables(paper_compiled).needs.items()
            if reqs and all(r[0] == "data" for r in reqs)
        )
        for _kind, obj, unit in name_tables(paper_compiled).needs[task]:
            c.on_alloc(0.5, 0, obj, 1, 1)
            c.on_data_arrive(0.6, 0, obj, unit, 1)
        c.on_exe(1.0, 2.0, 0, task)
        assert c.violations == []

    def test_landing_space_flagged(self, paper_compiled):
        c = make_checker(paper_compiled)
        c.on_data_arrive(1.0, 0, "d1", "T[1]", 1)
        assert [v.invariant for v in c.violations] == ["landing-space"]

    def test_free_kills_residency(self, paper_compiled):
        # T[1,2] and T[1,4] both read d1@T[1] on P1.
        c = make_checker(paper_compiled)
        c.on_alloc(0.5, 1, "d1", 1, 1)
        c.on_alloc(0.5, 1, "d3", 1, 2)
        c.on_data_arrive(0.6, 1, "d1", "T[1]", 0)
        c.on_free(0.7, 1, "d3", 1, 1)  # another object's free keeps d1
        c.on_exe(0.8, 0.9, 1, "T[1,2]")
        assert c.violations == []
        c.on_free(1.0, 1, "d1", 1, 0)
        c.on_exe(1.1, 1.2, 1, "T[1,4]")
        (v,) = c.violations
        assert v.invariant == "input-residency"
        assert "'d1'@'T[1]'" in v.detail

    def test_capacity_flagged(self, paper_compiled):
        c = make_checker(paper_compiled)
        c.on_alloc(1.0, 1, "d3", 11, 11)
        assert [v.invariant for v in c.violations] == ["capacity"]

    def test_slot_overwrite_flagged(self, paper_compiled):
        c = make_checker(paper_compiled)
        c.on_package_send(1.0, 0, 1, 2)
        c.on_package_send(2.0, 0, 1, 1)
        assert [v.invariant for v in c.violations] == ["slot-overwrite"]

    def test_slot_read_then_resend_is_legal(self, paper_compiled):
        c = make_checker(paper_compiled)
        c.on_package_send(1.0, 0, 1, 2)
        c.on_package_read(1.5, 1, 0, 2)
        c.on_package_send(2.0, 0, 1, 1)
        assert c.violations == []

    def test_unconsumed_slot_at_run_end_flagged(self, paper_compiled):
        c = make_checker(paper_compiled)
        c.on_package_send(1.0, 0, 1, 2)
        c.on_proc_end(3.0, 0)
        c.on_proc_end(3.0, 1)
        c.on_run_end(3.0)
        assert any(v.invariant == "slot-overwrite" for v in c.violations)

    def test_suspended_drain_flagged_at_proc_end(self, paper_compiled):
        c = make_checker(paper_compiled)
        c.on_put_suspend(1.0, 0, 1, "d1", "T[1]", 1)
        c.on_proc_end(2.0, 0)
        assert any(v.invariant == "suspended-drain" for v in c.violations)

    def test_termination_flagged(self, paper_compiled):
        c = make_checker(paper_compiled)
        c.on_proc_end(2.0, 0)
        c.on_run_end(2.0)
        assert [v.invariant for v in c.violations] == ["termination"]

    def test_strict_mode_raises(self, paper_compiled):
        c = make_checker(paper_compiled, strict=True)
        with pytest.raises(InvariantViolationError) as ei:
            c.on_alloc(1.0, 0, "d1", 99, 99)
        assert ei.value.violation.invariant == "capacity"

    def test_run_begin_resets(self, paper_compiled):
        c = make_checker(paper_compiled)
        c.on_alloc(1.0, 0, "d1", 99, 99)
        assert c.violations
        c.on_run_begin(0.0, 2, 10, True)
        assert c.violations == [] and len(c.window) == 0


class TestCycleFinder:
    def test_two_cycle(self):
        cyc = find_cycle({0: {1}, 1: {0}})
        assert cyc is not None and cyc[0] == cyc[-1] and len(cyc) == 3

    def test_three_cycle_with_tail(self):
        cyc = find_cycle({0: {1}, 1: {2}, 2: {0}, 3: {0}})
        assert cyc is not None
        assert set(cyc) == {0, 1, 2}

    def test_acyclic(self):
        assert find_cycle({0: {1}, 1: {2}, 2: set()}) is None

    def test_empty(self):
        assert find_cycle({}) is None


class TestDeadlockWitness:
    def make_err(self, with_edges=True):
        err = DeadlockError({0: "REC", 1: "END"}, 5, 6)
        err.details = {0: "next=r missing=['data d@u']", 1: "END suspended"}
        if with_edges:
            err.wait_for = {0: {1}, 1: {0}}
        return err

    def test_cycle_reported(self):
        w = deadlock_witness(self.make_err())
        assert "DEADLOCK: 5/6" in w
        assert "cycle: P0 -> P1 -> P0" in w
        assert "wait-for: P0 -> {P1}" in w

    def test_acyclic_explained(self):
        err = self.make_err()
        err.wait_for = {0: {1}, 1: set()}
        w = deadlock_witness(err)
        assert "no wait-for cycle" in w and "lost" in w

    def test_without_edges_still_renders(self):
        w = deadlock_witness(self.make_err(with_edges=False))
        assert "DEADLOCK" in w and "cycle" not in w


class TestViolationTrace:
    def test_trace_structure(self, paper_compiled):
        r = run_check(paper_compiled.schedule, compiled=paper_compiled)
        doc = violation_trace(r.checker, label="paper")
        assert doc["otherData"]["schema"] == "repro-conformance-trace/1"
        assert doc["otherData"]["violations"] == 0
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert "process_name" in names and "thread_name" in names
        body = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert body and all("detail" in e["args"] for e in body)
        ts = [e["ts"] for e in body]
        assert ts == sorted(ts)

    def test_violation_becomes_process_instant(self, paper_compiled):
        c = make_checker(paper_compiled)
        c.on_alloc(1.0, 0, "d1", 99, 99)
        doc = violation_trace(c)
        marks = [
            e for e in doc["traceEvents"]
            if e.get("cat") == "violation"
        ]
        assert len(marks) == 1 and marks[0]["s"] == "p"

    def test_write_violation_trace(self, paper_compiled, tmp_path):
        r = run_check(paper_compiled.schedule, compiled=paper_compiled)
        path = tmp_path / "window.json"
        text = write_violation_trace(r.checker, str(path))
        assert json.loads(path.read_text()) == json.loads(text)


class TestBatch:
    def test_batch_is_clean_and_reproducible(self, seeded_case):
        a = check_batch(3, graphs=2, include_paper=False)
        b = check_batch(3, graphs=2, include_paper=False)
        assert [r.summary() for r in a] == [r.summary() for r in b]
        assert all(r.ok for r in a)
        # the batch's dag labels reflect the seeds
        assert {r.label.split("/")[0] for r in a} == {"dag3", "dag4"}

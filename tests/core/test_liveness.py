"""Unit tests for the memory model (Definitions 4-6)."""

import pytest

from repro.core import (
    Schedule,
    analyze_memory,
    mem_req_of_task,
    min_mem,
    owner_compute_assignment,
)
from repro.core.placement import placement_from_dict
from repro.errors import NonExecutableScheduleError, SchedulingError
from repro.graph import GraphBuilder


def volatile_graph():
    """P0 produces a, b, c (owned); P1 reads them into volatiles."""
    b = GraphBuilder(materialize_inputs=False)
    for o, s in (("a", 2), ("b", 3), ("c", 4), ("x", 1), ("y", 1), ("z", 1)):
        b.add_object(o, s)
    b.add_task("wa", writes=("a",))
    b.add_task("wb", writes=("b",))
    b.add_task("wc", writes=("c",))
    b.add_task("ra", reads=("a",), writes=("x",))
    b.add_task("rb", reads=("b",), writes=("y",))
    b.add_task("rc", reads=("c",), writes=("z",))
    g = b.build()
    pl = placement_from_dict(
        2, {"a": 0, "b": 0, "c": 0, "x": 1, "y": 1, "z": 1}
    )
    asg = owner_compute_assignment(g, pl)
    return g, pl, asg


class TestLiveness:
    def test_unknown_task_in_order(self):
        g, pl, asg = volatile_graph()
        s = Schedule(g, pl, asg, [["wa", "wb", "wc"], ["ra", "nope", "rb"]])
        with pytest.raises(SchedulingError, match="unknown task 'nope'"):
            analyze_memory(s)

    def test_disjoint_lifetimes_share_space(self):
        g, pl, asg = volatile_graph()
        s = Schedule(g, pl, asg, [["wa", "wb", "wc"], ["ra", "rb", "rc"]])
        prof = analyze_memory(s)
        # P1 perm = x+y+z = 3; volatiles a(2), b(3), c(4) each alive at
        # exactly one task -> peak = 3 + 4 = 7.
        assert prof.procs[1].min_mem == 7
        assert prof.procs[1].tot == 3 + 9

    def test_spans(self):
        g, pl, asg = volatile_graph()
        s = Schedule(g, pl, asg, [["wa", "wb", "wc"], ["ra", "rb", "rc"]])
        prof = analyze_memory(s)
        assert prof.procs[1].span == {"a": (0, 0), "b": (1, 1), "c": (2, 2)}

    def test_dead_after(self):
        g, pl, asg = volatile_graph()
        s = Schedule(g, pl, asg, [["wa", "wb", "wc"], ["ra", "rb", "rc"]])
        prof = analyze_memory(s)
        assert prof.procs[1].dead_after == {0: ["a"], 1: ["b"], 2: ["c"]}

    def test_overlapping_lifetime(self):
        """Interleaving accesses keeps volatiles alive simultaneously."""
        b = GraphBuilder(materialize_inputs=False)
        for o in ("a", "b", "x", "y", "u", "v"):
            b.add_object(o, 1)
        b.add_task("wa", writes=("a",))
        b.add_task("wb", writes=("b",))
        b.add_task("r1", reads=("a",), writes=("x",))
        b.add_task("r2", reads=("b",), writes=("y",))
        b.add_task("r3", reads=("a",), writes=("u",))
        b.add_task("r4", reads=("b",), writes=("v",))
        g = b.build()
        pl = placement_from_dict(2, {"a": 0, "b": 0, "x": 1, "y": 1, "u": 1, "v": 1})
        asg = owner_compute_assignment(g, pl)
        s = Schedule(g, pl, asg, [["wa", "wb"], ["r1", "r2", "r3", "r4"]])
        prof = analyze_memory(s)
        # a alive 0..2, b alive 1..3 -> both alive at 1 and 2.
        assert prof.procs[1].min_mem == 4 + 2  # perm 4 + two volatiles

    def test_mem_req_per_task(self):
        g, pl, asg = volatile_graph()
        s = Schedule(g, pl, asg, [["wa", "wb", "wc"], ["ra", "rb", "rc"]])
        prof = analyze_memory(s)
        assert mem_req_of_task(prof, "rc") == 3 + 4
        assert mem_req_of_task(prof, "wa") == 2 + 3 + 4  # P0 perm only
        with pytest.raises(SchedulingError, match="schedule has no task 'zz'"):
            mem_req_of_task(prof, "zz")

    def test_min_mem_helper(self):
        g, pl, asg = volatile_graph()
        s = Schedule(g, pl, asg, [["wa", "wb", "wc"], ["ra", "rb", "rc"]])
        assert min_mem(s) == max(9, 7)

    def test_executability(self):
        g, pl, asg = volatile_graph()
        s = Schedule(g, pl, asg, [["wa", "wb", "wc"], ["ra", "rb", "rc"]])
        prof = analyze_memory(s)
        assert prof.executable_under(prof.min_mem)
        assert not prof.executable_under(prof.min_mem - 1)
        with pytest.raises(NonExecutableScheduleError):
            prof.require_executable(prof.min_mem - 1)

    def test_s1(self):
        g, pl, asg = volatile_graph()
        s = Schedule(g, pl, asg, [["wa", "wb", "wc"], ["ra", "rb", "rc"]])
        assert analyze_memory(s).s1 == 12

    def test_ratio_and_scalability_metrics(self):
        g, pl, asg = volatile_graph()
        s = Schedule(g, pl, asg, [["wa", "wb", "wc"], ["ra", "rb", "rc"]])
        prof = analyze_memory(s)
        # Table-1 style ratio (no recycling): mean((9, 12) / 6).
        assert prof.usage_ratio_vs_ideal(recycling=False) == pytest.approx(
            ((9 / 6) + (12 / 6)) / 2
        )
        # Figure-7 style scalability: S1 / max peak = 12 / 9.
        assert prof.memory_scalability() == pytest.approx(12 / 9)

    def test_no_volatiles_on_serial(self):
        from repro.core import serial_schedule
        from repro.graph.generators import chain

        g = chain(4)
        prof = analyze_memory(serial_schedule(g))
        assert prof.procs[0].vola_bytes == 0
        assert prof.min_mem == prof.s1

"""Unit tests for Schedule and Gantt prediction."""

import pytest

from repro.analysis import analyze_schedule
from repro.core import (
    CommModel,
    Schedule,
    analyze_memory,
    cyclic_placement,
    gantt,
    owner_compute_assignment,
    serial_schedule,
)
from repro.core.placement import placement_from_dict
from repro.errors import SchedulingError
from repro.graph.generators import chain, fork_join
from repro.machine.simulator import CompiledSchedule, Simulator
from repro.rapid.executor import execute_schedule, global_order
from repro.rapid.inspector import HEURISTICS, order_with


def two_proc_chain():
    """T0 -> T1 -> T2 with alternating ownership."""
    g = chain(3)
    pl = cyclic_placement(g, 2, order=["d0", "d1", "d2"])
    asg = owner_compute_assignment(g, pl)
    return g, pl, asg


class TestCommModel:
    def test_cost(self):
        cm = CommModel(latency=2.0, byte_time=0.5)
        assert cm.cost(4) == pytest.approx(4.0)

    def test_unit_default(self):
        cm = CommModel()
        assert cm.cost(100) == 1.0

    @pytest.mark.parametrize("field", ["latency", "byte_time"])
    @pytest.mark.parametrize("value", [-1.0, -1e-9, float("nan"), float("inf"), float("-inf")])
    def test_rejects_negative_or_non_finite_costs(self, field, value):
        with pytest.raises(SchedulingError, match=rf"CommModel\.{field} = "):
            CommModel(**{field: value})

    def test_zero_costs_are_accepted(self):
        assert CommModel(latency=0.0, byte_time=0.0).cost(10) == 0.0


class TestScheduleValidation:
    def test_valid(self):
        g, pl, asg = two_proc_chain()
        s = Schedule(g, pl, asg, [["T0", "T2"], ["T1"]])
        s.validate()

    def test_missing_task(self):
        g, pl, asg = two_proc_chain()
        s = Schedule(g, pl, asg, [["T0"], ["T1"]])
        with pytest.raises(SchedulingError):
            s.validate()

    def test_duplicate_task(self):
        g, pl, asg = two_proc_chain()
        s = Schedule(g, pl, asg, [["T0", "T2"], ["T1", "T2"]])
        with pytest.raises(SchedulingError):
            s.validate()

    def test_wrong_processor(self):
        g, pl, asg = two_proc_chain()
        s = Schedule(g, pl, asg, [["T0", "T1", "T2"], []])
        with pytest.raises(SchedulingError):
            s.validate()

    def test_orders_count_mismatch(self):
        g, pl, asg = two_proc_chain()
        with pytest.raises(SchedulingError):
            Schedule(g, pl, asg, [["T0", "T2", "T1"]])

    @pytest.mark.parametrize("orders, changed, message", [
        ([["T0", "T2", "X"], ["T1"]], {},
         "order of P0 contains unknown task 'X'"),
        ([["X", "T0", "T2"], ["T1"]], {},
         "order of P0 contains unknown task 'X'"),
        ([["T0", "T2"], ["T1", "T2"]], {},
         "task 'T2' appears on two processors"),
        ([["T0", "T1", "T2"], []], {},
         "task 'T1' ordered on P0 but assigned to P1"),
        ([["T0"], ["T1"]], {}, "schedule misses tasks: ['T2']..."),
        # Assignment defects, with orders that are otherwise valid.
        ([["T0", "T2"], ["T1"]], {"T2": None},
         "task 'T2' has no processor assignment"),
        ([["T0", "T2"], ["T1"]], {"T2": 2},
         "task 'T2' is assigned to processor 2, outside [0, 2)"),
    ], ids=["unknown", "unknown-first", "duplicate", "wrong-processor",
            "missing", "unassigned", "out-of-range"])
    def test_validate_and_compile_raise_the_same_error(self, orders, changed,
                                                       message):
        """Every consumer of a schedule goes through the same two
        structural checks (the mapping index's assignment check, then
        ``number_orders``), so each rejects a malformed schedule with
        the same error: no ``KeyError``, ``IndexError`` or silent
        result.  An assignment defect is also the ordering heuristics'
        error."""
        g, pl, asg = two_proc_chain()
        asg = {t: q for t, q in {**asg, **changed}.items() if q is not None}
        s = Schedule(g, pl, asg, orders)
        consumers = {
            "validate": Schedule.validate,
            "compile": CompiledSchedule,
            "simulate": lambda s: Simulator(s).run(),
            "analyze_memory": analyze_memory,
            "gantt": gantt,
            "global_order": global_order,
            "execute_schedule": lambda s: execute_schedule(s, {}),
            "analyze_schedule": analyze_schedule,
        }
        if changed:
            # ETF derives its own assignment (it reads only P).
            consumers.update({
                h: lambda s, h=h: order_with(h, g, pl, s.assignment,
                                             capacity=100)
                for h in HEURISTICS if h != "etf"
            })
        for name, consume in consumers.items():
            with pytest.raises(SchedulingError) as err:
                consume(s)
            assert str(err.value) == message, name

    def test_position(self):
        g, pl, asg = two_proc_chain()
        s = Schedule(g, pl, asg, [["T0", "T2"], ["T1"]])
        assert s.position() == {"T0": 0, "T2": 1, "T1": 0}


class TestGantt:
    def test_serial_chain(self):
        g = chain(3)
        s = serial_schedule(g)
        ch = gantt(s)
        assert ch.makespan == 3.0
        assert ch.start["T0"] == 0 and ch.start["T2"] == 2

    def test_cross_processor_comm_delay(self):
        g, pl, asg = two_proc_chain()
        s = Schedule(g, pl, asg, [["T0", "T2"], ["T1"]])
        ch = gantt(s)  # unit comm
        # T0: [0,1]; T1 starts at 2 (1 + comm); T2 at 4.
        assert ch.start["T1"] == 2.0
        assert ch.start["T2"] == 4.0
        assert ch.makespan == 5.0

    def test_same_proc_no_comm(self):
        g = chain(3)
        pl = placement_from_dict(1, {f"d{i}": 0 for i in range(3)})
        asg = owner_compute_assignment(g, pl)
        ch = gantt(Schedule(g, pl, asg, [["T0", "T1", "T2"]]))
        assert ch.makespan == 3.0

    def test_invalid_interleaving_detected(self):
        g = chain(3)
        pl = placement_from_dict(1, {f"d{i}": 0 for i in range(3)})
        asg = owner_compute_assignment(g, pl)
        s = Schedule(g, pl, asg, [["T1", "T0", "T2"]])
        with pytest.raises(SchedulingError):
            gantt(s)

    def test_parallel_speedup(self):
        g = fork_join(1, 4)
        pl = cyclic_placement(g, 2)
        asg = owner_compute_assignment(g, pl)
        from repro.core import rcp_order

        s = rcp_order(g, pl, asg)
        ch = gantt(s)
        assert ch.makespan < g.total_work()

    def test_busy_and_utilization(self):
        g, pl, asg = two_proc_chain()
        s = Schedule(g, pl, asg, [["T0", "T2"], ["T1"]])
        ch = gantt(s)
        assert ch.busy_time(0) == 2.0
        assert 0 < ch.utilization() <= 1.0

    def test_ascii_render(self):
        g, pl, asg = two_proc_chain()
        s = Schedule(g, pl, asg, [["T0", "T2"], ["T1"]])
        art = gantt(s).as_ascii()
        assert "P0:" in art and "PT = 5" in art

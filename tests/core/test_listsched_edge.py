"""White-box edge-case tests for the list-scheduling engine."""

import pytest

from repro.core import cyclic_placement, gantt, owner_compute_assignment
from repro.core.index import mapping_index
from repro.core.listsched import BoundPolicy, run_list_scheduler
from repro.core.placement import Placement
from repro.core.rcp import rcp_priorities
from repro.core.schedule import CommModel
from repro.errors import SchedulingError
from repro.graph import GraphBuilder
from repro.graph.generators import chain, fork_join, random_trace
from repro.rapid.inspector import order_with


def build_graph(tasks):
    """tasks: list of (name, reads, writes, weight)."""
    b = GraphBuilder(materialize_inputs=False)
    objs = {o for _n, r, w, _wt in tasks for o in (*r, *w)}
    for o in sorted(objs):
        b.add_object(o, 1)
    for n, r, w, wt in tasks:
        b.add_task(n, reads=r, writes=w, weight=wt)
    return b.build()


def static(g, pl, asg, prio):
    """The static policy of ``prio`` (task -> priority, larger first)."""
    mi = mapping_index(g, pl, asg)
    keys = [-prio[t] for t in mi.names]
    return BoundPolicy(keys.__getitem__)


class TestEngineEdges:
    def test_zero_weight_tasks(self):
        g = build_graph([("a", (), ("x",), 0.0), ("b", ("x",), ("y",), 0.0)])
        pl = cyclic_placement(g, 2)
        asg = owner_compute_assignment(g, pl)
        s = run_list_scheduler(g, pl, asg, static(g, pl, asg, {"a": 1.0, "b": 1.0}))
        assert gantt(s).makespan >= 0

    def test_single_task(self):
        g = build_graph([("only", (), ("x",), 2.0)])
        pl = cyclic_placement(g, 3)
        asg = owner_compute_assignment(g, pl)
        s = run_list_scheduler(g, pl, asg, static(g, pl, asg, {"only": 1.0}))
        assert s.orders[asg["only"]] == ["only"]

    def test_empty_graph(self):
        g = GraphBuilder(materialize_inputs=False).build()
        pl = cyclic_placement(g, 2)
        s = run_list_scheduler(g, pl, {}, static(g, pl, {}, {}))
        assert s.orders == [[], []]

    def test_levels_gate_strictness(self):
        """A ready task of a later level waits for every earlier-level
        task on its processor, even when idle time is available."""
        g = fork_join(1, 3)
        pl = cyclic_placement(g, 1, order=sorted(o.name for o in g.objects()))
        asg = {t: 0 for t in g.task_names}
        # put mid tasks in levels 0, 1, 2 artificially
        levels = {"fork0": 0, "mid0_0": 2, "mid0_1": 1, "mid0_2": 0, "join0": 3}
        s = run_list_scheduler(
            g, pl, asg, static(g, pl, asg, dict.fromkeys(g.task_names, 1.0)),
            levels=levels,
        )
        order = s.orders[0]
        assert order.index("mid0_2") < order.index("mid0_1") < order.index("mid0_0")

    def test_inconsistent_levels_stall_detected(self):
        """Levels that invert a dependence stall the engine with a clear
        error instead of looping."""
        g = chain(2)
        pl = cyclic_placement(g, 1, order=["d0", "d1"])
        asg = {t: 0 for t in g.task_names}
        levels = {"T0": 1, "T1": 0}  # T1 gated before T0, but T1 needs T0
        with pytest.raises(SchedulingError):
            run_list_scheduler(
                g, pl, asg, static(g, pl, asg, {"T0": 1.0, "T1": 1.0}), levels=levels
            )

    @pytest.mark.parametrize("heuristic", ["rcp", "mpo", "dts", "tree"])
    @pytest.mark.parametrize("bad", [2, 3, -1])
    def test_processor_outside_range(self, heuristic, bad):
        """A task mapped outside [0, P) is named with its processor;
        -1 must not quietly index the last processor."""
        g = chain(3)
        pl = cyclic_placement(g, 2)
        asg = dict(owner_compute_assignment(g, pl), T1=bad)
        with pytest.raises(SchedulingError, match=rf"'T1'.*processor {bad}"):
            order_with(heuristic, g, pl, asg)

    def test_levels_missing_task(self):
        g = chain(2)
        pl = cyclic_placement(g, 1)
        asg = {t: 0 for t in g.task_names}
        with pytest.raises(SchedulingError, match="'T1'"):
            run_list_scheduler(
                g, pl, asg, static(g, pl, asg, {"T0": 1.0, "T1": 1.0}),
                levels={"T0": 0},
            )

    def test_dynamic_priority_refresh(self):
        """A policy that boosts one task after another is scheduled sees
        the boost honoured (lazy heap invalidation)."""

        g = build_graph(
            [
                ("first", (), ("x",), 1.0),
                ("mid", (), ("y",), 1.0),
                ("late", (), ("z",), 1.0),
            ]
        )
        pl = cyclic_placement(g, 1, order=["x", "y", "z"])
        asg = {t: 0 for t in g.task_names}
        mi = mapping_index(g, pl, asg)
        first, mid, late = map(mi.names.index, ("first", "mid", "late"))
        keys = {first: (-10.0,), late: (0.0,), mid: (-5.0,)}

        def scheduled(i, proc):
            if i == first:
                keys[late] = (-100.0,)
                return [late]
            return []

        s = run_list_scheduler(
            g, pl, asg, BoundPolicy(keys.__getitem__, scheduled))
        order = s.orders[0]
        assert order == ["first", "late", "mid"]

    def test_orders_follow_the_given_assignment(self):
        """The scheduler places each task on the processor of the
        assignment it is given, whatever mapping the priorities came
        from: keys built from the swapped mapping's b-levels must still
        give orders that agree with the schedule's own assignment."""
        g = random_trace(10, 4, seed=0)
        pl = cyclic_placement(g, 2)
        asg = owner_compute_assignment(g, pl)
        swapped_pl = Placement(2, {o: 1 - q for o, q in pl.owner.items()})
        swapped = {t: 1 - q for t, q in asg.items()}
        keys = [-b for b in rcp_priorities(
            g, mapping_index(g, swapped_pl, swapped).proc)]
        s = run_list_scheduler(g, pl, asg, BoundPolicy(keys.__getitem__))
        s.validate()
        assert all(asg[t] == q for q, order in enumerate(s.orders)
                   for t in order)

    def test_comm_model_affects_start_times(self):
        g = chain(2)
        pl = cyclic_placement(g, 2, order=["d0", "d1"])
        asg = owner_compute_assignment(g, pl)
        cheap = run_list_scheduler(
            g, pl, asg, static(g, pl, asg, {"T0": 1.0, "T1": 1.0}), comm=CommModel(0.1)
        )
        costly = run_list_scheduler(
            g, pl, asg, static(g, pl, asg, {"T0": 1.0, "T1": 1.0}), comm=CommModel(10.0)
        )
        assert gantt(costly, CommModel(10.0)).makespan > gantt(
            cheap, CommModel(0.1)
        ).makespan


class TestScheduleEdges:
    def test_serial_schedule_custom_order(self):
        from repro.core import serial_schedule

        g = chain(3)
        s = serial_schedule(g, order=["T0", "T1", "T2"])
        assert s.orders[0] == ["T0", "T1", "T2"]

    def test_ascii_with_unit(self):
        from repro.core import gantt, serial_schedule

        g = chain(3)
        art = gantt(serial_schedule(g)).as_ascii(unit=0.5)
        assert "PT = 3" in art

    def test_empty_ascii(self):
        from repro.core import Schedule, gantt
        from repro.core.placement import Placement

        g = GraphBuilder(materialize_inputs=False).build()
        s = Schedule(g, Placement(1, {}), {}, [[]])
        assert "empty" in gantt(s).as_ascii()

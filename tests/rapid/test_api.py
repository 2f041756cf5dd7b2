"""Unit and integration tests for the RAPID-style API."""

import pytest

from repro.core import Placement, cyclic_placement, gantt, owner_compute_assignment
from repro.errors import NonExecutableScheduleError, SchedulingError
from repro.machine.spec import UNIT_MACHINE
from repro.rapid import Rapid, parallelize
from repro.rapid.executor import execute_schedule, execute_serial, global_order
from repro.rapid.inspector import HEURISTICS, order_with
from repro.graph.generators import random_trace


def small_session() -> Rapid:
    r = Rapid(spec=UNIT_MACHINE)
    r.object("x", 4)
    r.object("y", 4)
    r.object("z", 4)
    r.task("px", writes=["x"], weight=1.0)
    r.task("py", writes=["y"], weight=1.0)
    r.task("c", reads=["x", "y"], writes=["z"], weight=2.0)
    return r


class TestSession:
    def test_graph_derivation(self):
        r = small_session()
        g = r.graph
        assert g.has_edge("px", "c") and g.has_edge("py", "c")

    def test_parallelize_returns_program(self):
        prog = small_session().parallelize(2)
        assert prog.schedule.num_procs == 2
        assert prog.min_mem <= prog.tot

    def test_predicted_time(self):
        prog = small_session().parallelize(2)
        assert prog.predicted_time() >= 2.0

    def test_run(self):
        prog = small_session().parallelize(2)
        res = prog.run(capacity=prog.min_mem)
        assert res.parallel_time > 0
        assert res.peak_memory <= prog.min_mem

    def test_run_baseline(self):
        prog = small_session().parallelize(2)
        res = prog.run(memory_managed=False)
        assert not res.memory_managed

    def test_run_non_executable(self):
        prog = small_session().parallelize(2)
        if prog.min_mem > 0:
            with pytest.raises(NonExecutableScheduleError):
                prog.run(capacity=prog.min_mem - 1)

    def test_run_numeric_kernels(self):
        r = Rapid(spec=UNIT_MACHINE)
        r.object("a", 8)
        r.object("b", 8)
        r.task("w", writes=["a"], kernel=lambda s: s.__setitem__("a", 21))
        r.task(
            "d",
            reads=["a"],
            writes=["b"],
            kernel=lambda s: s.__setitem__("b", s["a"] * 2),
        )
        prog = r.parallelize(2)
        store = prog.run_numeric({})
        assert store["b"] == 42

    def test_plan(self):
        prog = small_session().parallelize(2)
        plan = prog.plan(prog.tot)
        assert plan.avg_maps >= 1.0

    def test_docstring_example(self):
        r = Rapid()
        r.object("x", size=8)
        r.object("y", size=8)
        r.task("produce", writes=["x"], weight=1.0)
        r.task("consume", reads=["x"], writes=["y"], weight=2.0)
        prog = r.parallelize(num_procs=2, heuristic="mpo")
        result = prog.run(capacity=prog.min_mem)
        assert result.parallel_time > 0


class TestInspector:
    def test_all_heuristics(self):
        g = random_trace(40, 8, seed=2)
        for h in HEURISTICS:
            s = parallelize(g, 3, heuristic=h, capacity=10**9)
            s.validate()

    def test_unknown_heuristic(self):
        g = random_trace(10, 4, seed=0)
        with pytest.raises(SchedulingError):
            parallelize(g, 2, heuristic="banana")

    @pytest.mark.parametrize("name", ["RCP", "dts_merge", " rcp"])
    def test_order_with_takes_only_the_listed_names(self, name):
        g = random_trace(10, 4, seed=0)
        pl = cyclic_placement(g, 2)
        with pytest.raises(SchedulingError, match="unknown heuristic"):
            order_with(name, g, pl, owner_compute_assignment(g, pl), capacity=10**9)

    def test_dts_merge_needs_capacity(self):
        g = random_trace(10, 4, seed=0)
        with pytest.raises(SchedulingError):
            parallelize(g, 2, heuristic="dts-merge")

    def test_dsc_clustering(self):
        g = random_trace(40, 8, seed=3)
        s = parallelize(g, 3, clustering="dsc")
        s.validate()

    def test_unknown_clustering(self):
        g = random_trace(10, 4, seed=0)
        with pytest.raises(SchedulingError):
            parallelize(g, 2, clustering="magic")

    def test_placement_mismatch(self):
        g = random_trace(10, 4, seed=0)
        pl = Placement(3, {o.name: 0 for o in g.objects()})
        with pytest.raises(SchedulingError):
            parallelize(g, 2, placement=pl)


class TestExecutor:
    def test_global_order_is_topological(self):
        g = random_trace(50, 10, seed=1)
        s = parallelize(g, 3)
        order = global_order(s)
        pos = {t: i for i, t in enumerate(order)}
        for u, v, _ in g.edges():
            assert pos[u] < pos[v]
        # per-processor order preserved
        for proc_order in s.orders:
            idxs = [pos[t] for t in proc_order]
            assert idxs == sorted(idxs)

    @pytest.mark.parametrize("at", [0, -1])
    def test_unknown_task_in_an_order(self, at):
        s = parallelize(random_trace(10, 4, seed=0), 2)
        s.orders[0].insert(len(s.orders[0]) if at < 0 else at, "zz")
        for run in (gantt, global_order,
                    lambda s: execute_schedule(s, {})):
            with pytest.raises(SchedulingError,
                               match="order of P0 contains unknown task 'zz'"):
                run(s)

    def test_execute_serial_wrong_order_length(self):
        g = random_trace(10, 4, seed=0)
        with pytest.raises(SchedulingError):
            execute_serial(g, {}, order=g.task_names[:3])

"""Tests for iterative execution, state-time accounting and the CLI."""

import pytest

from repro.cli import main
from repro.machine.spec import CRAY_T3D, UNIT_MACHINE
from repro.machine.simulator import Simulator
from repro.rapid import Rapid


def pipeline_session(spec=CRAY_T3D) -> Rapid:
    r = Rapid(spec=spec)
    for i in range(6):
        r.object(f"d{i}", 64)
    r.task("t0", writes=["d0"], weight=1e-4)
    r.task("t1", writes=["d1"], weight=1e-4)
    r.task("t2", reads=["d0", "d1"], writes=["d2"], weight=2e-4)
    r.task("t3", reads=["d2"], writes=["d3"], weight=1e-4)
    r.task("t4", reads=["d2"], writes=["d4"], weight=1e-4)
    r.task("t5", reads=["d3", "d4"], writes=["d5"], weight=1e-4)
    return r


class TestIterative:
    def test_first_iteration_pays_more(self):
        prog = pipeline_session().parallelize(2)
        it = prog.run_iterative(5, capacity=prog.min_mem)
        assert it.first.parallel_time >= it.steady.parallel_time
        assert it.first_iteration_overhead >= 0

    def test_total_and_amortized(self):
        prog = pipeline_session().parallelize(2)
        it = prog.run_iterative(4, capacity=prog.min_mem)
        expect = it.first.parallel_time + 3 * it.steady.parallel_time
        assert it.total_time == pytest.approx(expect)
        assert it.amortized_time == pytest.approx(expect / 4)

    def test_single_iteration(self):
        prog = pipeline_session().parallelize(2)
        it = prog.run_iterative(1, capacity=prog.min_mem)
        assert it.total_time == it.first.parallel_time

    def test_one_compile_per_program(self):
        """Every run of a program reads its one compiled schedule: the
        steady-state run reuses the first run's lowering."""
        prog = pipeline_session().parallelize(2)
        cs = prog.compiled()
        prog.run_iterative(3, capacity=prog.min_mem)
        assert prog.compiled() is cs and prog.profile is cs.profile
        assert cs.counters["lower_misses"] == 1
        assert prog.plan(prog.min_mem) is cs.plan_for(prog.min_mem)

    def test_bad_iterations(self):
        prog = pipeline_session().parallelize(2)
        with pytest.raises(ValueError):
            prog.run_iterative(0)

    def test_steady_state_sends_no_packages(self):
        prog = pipeline_session().parallelize(2)
        res = Simulator(
            spec=CRAY_T3D,
            capacity=prog.min_mem,
            compiled=prog.compiled(),
            preknown_addresses=True,
        ).run()
        assert sum(s.packages_sent for s in res.stats) == 0
        assert sum(s.suspended_sends for s in res.stats) == 0

    def test_amortization_approaches_steady(self):
        prog = pipeline_session().parallelize(2)
        it_small = prog.run_iterative(2, capacity=prog.min_mem)
        it_big = prog.run_iterative(100, capacity=prog.min_mem)
        assert it_big.amortized_time <= it_small.amortized_time
        assert it_big.amortized_time == pytest.approx(
            it_big.steady.parallel_time, rel=0.05
        )


class TestStateAccounting:
    def test_time_decomposition(self):
        prog = pipeline_session().parallelize(2)
        res = prog.run(capacity=prog.min_mem)
        for s in res.stats:
            assert s.idle_time >= 0
            total = s.busy_time + s.overhead_time + s.idle_time
            assert total == pytest.approx(s.finish_time, abs=1e-12)

    def test_overhead_zero_on_unit_machine(self):
        prog = pipeline_session(spec=UNIT_MACHINE).parallelize(2)
        res = prog.run(capacity=prog.min_mem)
        assert all(s.overhead_time == 0 for s in res.stats)


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "figure7" in out

    def test_example(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "MIN_MEM Fig2(b) = 9" in out
        assert "d1 -> d3 -> d4 -> d5 -> d7 -> d8 -> d2" in out

    def test_table1_restricted(self, capsys):
        assert main(["table1", "--procs", "2", "4"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_figure7_one_app(self, capsys):
        assert main(["figure7", "--app", "lu", "--procs", "2", "4"]) == 0
        assert "Figure 7 (lu)" in capsys.readouterr().out

    def test_unknown(self, capsys):
        assert main(["tableX"]) == 2

    def test_svg_output(self, tmp_path, capsys):
        import xml.etree.ElementTree as ET

        assert main(["svg", "--out", str(tmp_path)]) == 0
        files = sorted(tmp_path.glob("*.svg"))
        assert len(files) == 6
        for f in files:
            ET.parse(f)  # well-formed

    def test_list_includes_svg(self, capsys):
        main(["list"])
        assert "svg" in capsys.readouterr().out

"""Smoke and shape tests for the table/figure regeneration library.

Full-size sweeps live in ``benchmarks/``; these tests run reduced
configurations and assert the paper's qualitative shapes.
"""

import math

import pytest

from repro.experiments import (
    ExperimentContext,
    compare_pt,
    run_figure7,
    run_table8,
    table1,
    table2,
    table4,
    table5,
    table6,
    table7,
)
from repro.experiments.common import SweepRecord
from repro.experiments.report import fmt_maps, fmt_pct, fmt_ratio, render_table


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext()


class TestCommon:
    def test_problem_caching(self, ctx):
        assert ctx.problem("chol15") is ctx.problem("chol15")

    def test_unknown_workload(self, ctx):
        with pytest.raises(KeyError):
            ctx.problem("nope")

    def test_schedule_caching(self, ctx):
        s1 = ctx.schedule("chol15", 2, "rcp")
        s2 = ctx.schedule("chol15", 2, "rcp")
        assert s1 is s2

    def test_profile_is_the_compiled_schedules(self, ctx):
        for h in ("rcp", "mpo", "dts"):
            cs = ctx.compiled("chol15", 2, h)
            assert ctx.profile("chol15", 2, h) is cs.profile
            assert ctx.schedule("chol15", 2, h) is cs.schedule

    def test_dts_merge_compiles_per_capacity(self):
        """Only ``dts-merge`` orders under the cell's capacity: its
        cells at two fractions hold two compiled schedules, every other
        heuristic's one."""
        ctx = ExperimentContext()
        for h in ("rcp", "dts-merge"):
            for f in (0.75, 0.5):
                ctx.run_cell("chol15", 2, h, f, reference="rcp")
        keys = ctx._group("chol15", 2).compiled
        assert sorted(k for k in keys if k[0] == "dts-merge") == sorted(
            ("dts-merge", int(ctx.reference_tot("chol15", 2) * f))
            for f in (0.75, 0.5))
        assert [k for k in keys if k[0] == "rcp"] == [("rcp", None)]

    def test_baseline_pt_positive(self, ctx):
        assert ctx.baseline_pt("chol15", 2) > 0

    def test_run_cell_100pct_executable(self, ctx):
        c = ctx.run_cell("chol15", 4, "rcp", 1.0)
        assert c.executable
        assert c.pt_increase >= 0  # management always costs something
        assert c.avg_maps >= 1.0

    def test_run_cell_non_executable(self, ctx):
        c = ctx.run_cell("chol15", 2, "rcp", 0.4)
        # at p=2 almost everything is permanent; 40% of TOT is below
        # MIN_MEM for this workload (the paper's table 2 shows inf too)
        if not c.executable:
            assert math.isinf(c.parallel_time)

    def test_compare_pt_markers(self):
        def cell(executable, pt=math.inf):
            return SweepRecord("chol15", 2, "rcp", 1.0, executable, 0, 0, 0,
                               pt, math.inf, math.inf)

        ok = cell(True, pt=2.0)
        ok2 = cell(True, pt=3.0)
        bad = cell(False)
        assert compare_pt(ok, ok2) == pytest.approx(0.5)
        assert compare_pt(bad, ok) == "*"
        assert compare_pt(ok, bad) == "!"
        assert compare_pt(bad, bad) == "-"

    def test_reference_tot_is_rcp(self, ctx):
        assert ctx.reference_tot("chol15", 4) == ctx.profile("chol15", 4, "rcp").tot


class TestTables:
    def test_table1_ratio_grows_with_p(self, ctx):
        t = table1(ctx, procs=(2, 4, 8))
        assert t.ratios[2] < t.ratios[4] < t.ratios[8]
        assert t.ratios[2] > 1.0
        assert "Table 1" in t.render()

    def test_table2_shapes(self, ctx):
        t = table2(ctx, procs=(4, 8), fractions=(1.0, 0.75))
        # overhead grows as memory shrinks (when executable)
        for p in (4, 8):
            full = t.pt_increase[(p, 1.0)]
            tight = t.pt_increase[(p, 0.75)]
            assert full >= 0
            if not math.isinf(tight):
                assert tight >= full * 0.5  # same order, usually larger
        assert "PTinc" in t.render()

    def test_table4_mpo_close_to_rcp(self, ctx):
        t = table4(ctx, "cholesky", procs=(4, 8), fractions=(0.75,))
        for key, v in t.entries.items():
            if isinstance(v, float):
                assert abs(v) < 0.5  # within +-50%: "negligible difference"

    def test_table5_mpo_needs_no_more_maps(self, ctx):
        t = table5(ctx, procs=(8,), fractions=(0.75, 0.5))
        for (p, f), (rcp_maps, mpo_maps) in t.entries.items():
            if not math.isinf(rcp_maps) and not math.isinf(mpo_maps):
                assert mpo_maps <= rcp_maps + 1e-9

    def test_table6_dts_slower(self, ctx):
        t = table6(ctx, "cholesky", procs=(8, 16), fractions=(0.75,))
        vals = [v for v in t.entries.values() if isinstance(v, float)]
        assert vals and all(v > -0.05 for v in vals)
        assert sum(vals) / len(vals) > 0  # DTS slower on average

    def test_table7_merge_competitive(self, ctx):
        t = table7(ctx, "cholesky", procs=(8,), fractions=(0.75, 0.5))
        for v in t.entries.values():
            if isinstance(v, float):
                assert abs(v) < 0.6

    def test_render_all(self, ctx):
        t = table2(ctx, procs=(4,), fractions=(1.0, 0.75))
        assert "P=4" in t.render()


class TestFigure7:
    def test_ordering_of_heuristics(self, ctx):
        f = run_figure7(ctx, "cholesky", procs=(4, 8, 16))
        for i in range(3):
            perfect = f.series["perfect"][i]
            rcp = f.series["RCP"][i]
            mpo = f.series["MPO"][i]
            dts = f.series["DTS"][i]
            assert rcp <= mpo + 1e-9  # MPO at least as scalable as RCP
            assert dts <= perfect + 1e-9
            assert mpo <= perfect + 1e-9

    def test_lu_rcp_poor(self, ctx):
        """Figure 7(b): RCP is far from perfect for LU."""
        f = run_figure7(ctx, "lu", procs=(8,))
        assert f.series["RCP"][0] < 0.5 * f.series["perfect"][0]

    def test_render(self, ctx):
        f = run_figure7(ctx, "cholesky", procs=(2, 4))
        assert "Figure 7" in f.render()


class TestTable8:
    def test_new_scheme_solves_larger(self):
        t = run_table8(scale=0.04, block_size=8, procs=(4, 8), base_procs=4)
        assert t.n_new >= t.n_original
        assert t.size_increase_pct >= 0
        ok = [r for r in t.rows if not math.isinf(r.parallel_time)]
        assert ok
        # MFLOPS grows with p in the executable rows
        if len(ok) >= 2:
            assert ok[-1].mflops >= ok[0].mflops * 0.8
        assert "Table 8" in t.render()


class TestReport:
    def test_fmt_pct(self):
        assert fmt_pct(0.123) == "12.3%"
        assert fmt_pct(float("inf")) == "inf"
        assert fmt_pct("*") == "*"

    def test_fmt_maps_ratio(self):
        assert fmt_maps(2.5) == "2.50"
        assert fmt_ratio(float("inf")) == "inf"

    def test_render_table(self):
        s = render_table(["a", "bb"], [["1", "2"], ["3", "4"]], title="T")
        assert s.splitlines()[0] == "T"
        assert "bb" in s

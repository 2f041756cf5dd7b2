"""Lowered-IR verifier (`repro.analysis.irverify`, SA5xx).

Clean verdicts on every shipped lowering, and one surgical mutation per
rule family: each corrupt IR is rejected with its specific SA5xx
diagnostic — never a crash, never a silent pass.  Every test builds its
own `CompiledSchedule` so mutating the memoised lowering or MAP plan
cannot leak into shared caches.
"""

import pytest

from repro.analysis import (
    debug_verify,
    verify_exec_plan,
    verify_lowering,
    verify_report,
)
from repro.core import Schedule, owner_compute_assignment
from repro.core.placement import placement_from_dict
from repro.errors import ReproError, SimulationError
from repro.experiments import ExperimentContext
from repro.graph import GraphBuilder
from repro.graph.paper_example import schedule_c
from repro.machine.compiled import get_exec_plan, lower_schedule
from repro.machine.simulator import CompiledSchedule, Simulator
from repro.machine.spec import UNIT_MACHINE


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext()


def fresh_paper():
    """A private CompiledSchedule of the worked example."""
    return CompiledSchedule(schedule_c())


def error_codes(diags):
    return {d.rule for d in diags}


def data_and_sync_schedule():
    """P0 writes ``m`` twice; P1 reads the first version.  The anti
    dependence r -> w2 adds a sync message, so every CSR table of the
    lowering (data, sync, consumption, waiter and group rows) is
    non-empty."""
    b = GraphBuilder(materialize_inputs=False, dependence_mode="transform")
    for name in ("m", "out", "fin"):
        b.add_object(name, 4)
    b.add_task("w1", writes=("m",), weight=0.0)
    b.add_task("r", reads=("m",), writes=("out",), weight=1.0)
    b.add_task("w2", writes=("m",), weight=0.0)
    b.add_task("fin", reads=("m",), writes=("fin",), weight=1.0)
    g = b.build()
    pl = placement_from_dict(2, {"m": 0, "out": 1, "fin": 0})
    return Schedule(g, pl, owner_compute_assignment(g, pl),
                    [["w1", "w2", "fin"], ["r"]])


def swap_first_positions(lo):
    """Swap the tasks at positions 0 and 1 (both on P0 of the worked
    example): every table stays in range, but ``tid_at`` no longer
    spells the schedule's orders."""
    lo.tid_at[0], lo.tid_at[1] = lo.tid_at[1], lo.tid_at[0]


def compiled_pt(cs):
    return Simulator(
        compiled=cs, spec=UNIT_MACHINE, engine="compiled"
    ).run().parallel_time


#: Every (pointer, index) table pair the SA501 pass checks, by the name
#: its findings use.
CSR_PAIRS = [
    "proc_start", "od_ptr/od_mk", "od_ptr/od_grp", "od_ptr/od_dest",
    "od_ptr/od_oid", "os_ptr/os_sk", "cons_ptr/cons_mk",
    "wait_ptr/wait_tid", "swait_ptr/swait_tid", "grp_ptr/grp_mk",
]


class TestCleanVerdicts:
    def test_paper_lowering_is_clean(self):
        assert verify_lowering(fresh_paper()) == []

    def test_paper_exec_plan_is_clean(self):
        cs = fresh_paper()
        assert verify_exec_plan(cs, 8, UNIT_MACHINE) == []

    @pytest.mark.parametrize("h", ["rcp", "mpo", "dts", "tree", "etf"])
    def test_every_shipped_heuristic_lowers_clean(self, ctx, h):
        cs = ctx.compiled("etree15", 2, h)
        prof = cs.profile
        diags = verify_exec_plan(cs, prof.tot, ctx.spec)
        assert diags == []

    def test_report_wrapper_is_ok(self):
        report = verify_report(fresh_paper(), capacity=8, spec=UNIT_MACHINE)
        assert report.ok
        assert report.diagnostics == []
        assert "OK" in report.summary()

    def test_non_executable_capacity_degrades_not_crashes(self):
        # Capacity below MIN_MEM admits no MAP plan; the verifier
        # falls back to the lowering passes (SA101 is the analyzer's).
        cs = fresh_paper()
        report = verify_report(cs, capacity=1, spec=UNIT_MACHINE)
        assert report.ok


class TestMutationsAreRejected:
    """One corrupt IR per rule family — specific code, no crash."""

    def test_sa501_non_monotone_csr(self):
        cs = fresh_paper()
        ml = lower_schedule(cs).mapping
        ml.od_ptr[1] = ml.od_ptr[-1] + 5  # pointer row past the table
        diags = verify_lowering(cs)
        assert error_codes(diags) == {"SA501"}
        assert any("od_ptr" in d.message for d in diags)

    def test_sa501_out_of_space_index(self):
        cs = fresh_paper()
        lo = lower_schedule(cs)
        lo.mapping.wait_tid[0] = lo.num_tasks + 99
        diags = verify_lowering(cs)
        assert error_codes(diags) == {"SA501"}

    def test_sa501_gates_the_deeper_passes(self):
        # A structurally corrupt CSR must not be chased by the
        # bijection/version walks — only SA501 is reported.
        cs = fresh_paper()
        lo = lower_schedule(cs)
        lo.mapping.od_ptr[1] = lo.mapping.od_ptr[-1] + 5
        swap_first_positions(lo)  # would be SA502 if reached
        diags = verify_exec_plan(cs, 8, UNIT_MACHINE)
        assert error_codes(diags) == {"SA501"}

    def test_sa502_broken_task_bijection(self):
        cs = fresh_paper()
        swap_first_positions(lower_schedule(cs))
        diags = verify_lowering(cs)
        assert "SA502" in error_codes(diags)
        assert any("tid_at" in d.message for d in diags)

    def test_sa503_version_flag_drift(self):
        cs = fresh_paper()
        lo = lower_schedule(cs)
        if not lo.od_ok0:
            pytest.skip("no outgoing data on this lowering")
        lo.od_ok0[0] = not bool(lo.od_ok0[0])
        diags = verify_lowering(cs)
        assert "SA503" in error_codes(diags)

    def test_sa504_silent_run_swallows_a_noisy_task(self):
        cs = fresh_paper()
        lo = lower_schedule(cs)
        pos = next(
            p for p in range(lo.num_tasks - 1)
            if lo.run_end[p] == -1 and p + 1 not in lo.proc_start
        )
        lo.run_end[pos] = pos + 1  # run the noisy task as a silent one
        diags = verify_exec_plan(cs, 8, UNIT_MACHINE)
        assert error_codes(diags) == {"SA504"}
        assert any("noisy task" in d.message for d in diags)

    def test_sa504_map_positions_out_of_order(self):
        cs = fresh_paper()
        ep = get_exec_plan(cs, cs.profile.min_mem, UNIT_MACHINE, True)
        k = next(k for k in range(len(ep.map_pos) - 1)
                 if ep.map_pos[k] < ep.map_pos[k + 1] - 1
                 and k + 1 not in ep.map_first)
        ep.map_pos[k], ep.map_pos[k + 1] = ep.map_pos[k + 1], ep.map_pos[k]
        diags = verify_exec_plan(cs, cs.profile.min_mem, UNIT_MACHINE)
        assert "SA504" in error_codes(diags)

    def test_sa505_negative_weight(self):
        cs = fresh_paper()
        lo = lower_schedule(cs)
        lo.weight[0] = -1.0
        diags = verify_lowering(cs)
        assert "SA505" in error_codes(diags)

    def test_mutations_never_raise(self):
        # Even wildly corrupt tables come back as diagnostics.
        cs = fresh_paper()
        ml = lower_schedule(cs).mapping
        ml.od_ptr[:] = [-7] * len(ml.od_ptr)
        ml.wait_ptr[:] = [10**6] * len(ml.wait_ptr)
        diags = verify_exec_plan(cs, 8, UNIT_MACHINE)
        assert diags
        assert all(d.rule.startswith("SA5") for d in diags)


class TestVerifiedTablesRun:
    """SA501 checks the very tables the compiled run loop indexes: a
    corrupt row it reports can never run to the clean result."""

    @pytest.mark.parametrize("pair", CSR_PAIRS)
    def test_flagged_corruption_changes_the_run(self, pair):
        clean = compiled_pt(CompiledSchedule(data_and_sync_schedule()))
        cs = CompiledSchedule(data_and_sync_schedule())
        lo = lower_schedule(cs)
        ptr = getattr(lo if pair == "proc_start" else lo.mapping,
                      pair.split("/")[0])
        ptr[1] = ptr[-1] + 5  # pointer row past the table
        diags = verify_lowering(cs)
        assert error_codes(diags) == {"SA501"}
        assert any(d.message.startswith(pair + ":") for d in diags)
        try:
            pt = compiled_pt(cs)
        except (IndexError, ReproError):
            return
        assert pt != clean

    def test_flagged_weight_changes_the_cached_plan_run(self):
        # The run loop indexes ``lo.weight``: a weight corrupted after
        # the lowering is built and cached is the weight that runs.
        cs = CompiledSchedule(data_and_sync_schedule())
        sim = Simulator(compiled=cs, spec=UNIT_MACHINE, engine="compiled")
        clean = sim.run().parallel_time  # builds and caches the plan
        lo = lower_schedule(cs)
        tid = lo.mapping.gi.tid
        lo.weight[lo.tid_at.index(tid["fin"])] = -1.0  # silent task
        lo.weight[lo.tid_at.index(tid["w1"])] = -1.0  # sends m: noisy
        diags = verify_exec_plan(cs, sim.capacity, UNIT_MACHINE)
        assert "SA505" in error_codes(diags)
        try:
            pt = sim.run().parallel_time
        except (AssertionError, IndexError, ReproError):
            pt = None
        # ran the cached lowering and MAP plan
        assert cs.counters["lower_misses"] == 1
        assert cs.counters["plan_misses"] == 1
        assert pt != clean


class TestDebugPath:
    def test_debug_verify_clean(self):
        debug_verify(fresh_paper())  # no exception

    def test_debug_verify_raises_on_corruption(self):
        cs = fresh_paper()
        ml = lower_schedule(cs).mapping
        ml.od_ptr[1] = ml.od_ptr[-1] + 5
        with pytest.raises(SimulationError, match="SA501"):
            debug_verify(cs)

    def test_env_hook_verifies_fresh_lowerings(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_IR", "1")
        cs = fresh_paper()
        lower_schedule(cs)  # would raise via debug_verify on a bad IR
        get_exec_plan(cs, 8, UNIT_MACHINE, True)

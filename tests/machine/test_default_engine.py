"""The compiled engine as the default engine.

* The default sweep CSV equals the interpreted oracle's byte for byte,
  with the IR verifier (``REPRO_VERIFY_IR=1``) checking every lowering
  and the MAP tables of every run on the default path.
* RCP, MPO and DTS at one P share one mapping-level lowering.
* A run reads its MAP plan's own id tables: their size follows the MAPs
  of the plan, not the tasks of the schedule, they agree with the
  plan's name view, and runs that differ only in
  ``preknown_addresses`` share one plan.
"""

import pytest

from repro.experiments import ExperimentContext
from repro.experiments.sweep import full_sweep, to_csv
from repro.machine import compiled as compiled_mod
from repro.core.maps import MapTables
from repro.machine.compiled import get_exec_plan, lower_schedule
from repro.machine.simulator import Simulator

GRID = dict(
    workloads=("chol15",), procs=(2, 8),
    heuristics=("rcp", "mpo", "dts"),
    fractions=(1.0, 0.75, 0.5, 0.4, 0.25),
)


def test_default_csv_equals_interpreted_under_the_verifier(monkeypatch):
    interpreted = full_sweep(ExperimentContext(), engine="interpreted",
                             **GRID)
    verified = []
    real = compiled_mod.get_exec_plan

    def counting(cs, *args, **kw):
        ep = real(cs, *args, **kw)
        verified.append(ep)
        return ep

    monkeypatch.setenv("REPRO_VERIFY_IR", "1")  # raises on any finding
    monkeypatch.setattr(compiled_mod, "get_exec_plan", counting)
    ctx = ExperimentContext()
    default = full_sweep(ctx, **GRID)
    assert to_csv(default) == to_csv(interpreted)
    executable = [r for r in default if r.executable]
    assert executable
    # every executable cell and every baseline ran a verified plan
    assert len(verified) == len(executable) + len(GRID["procs"])
    counters = ctx.engine_counters()
    assert counters["compiled_runs"] == len(verified)
    assert counters["interpreted_runs"] == 0


def test_one_mapping_lowering_per_mapping(monkeypatch):
    calls = []
    real = compiled_mod._lower_mapping
    monkeypatch.setattr(
        compiled_mod, "_lower_mapping",
        lambda *a: calls.append(1) or real(*a))
    ctx = ExperimentContext()
    lows = [lower_schedule(ctx.compiled("lu-goodwin", 4, h))
            for h in ("rcp", "mpo", "dts")]
    assert len(calls) == 1
    assert lows[0].mapping is lows[1].mapping is lows[2].mapping
    lower_schedule(ctx.compiled("lu-goodwin", 8, "rcp"))
    assert len(calls) == 2  # another P is another mapping


@pytest.mark.parametrize("fraction", [1.0, 0.5])
def test_exec_plan_size_follows_the_maps(fraction):
    ctx = ExperimentContext()
    cs = ctx.compiled("chol15", 4, "mpo")
    cap = int(cs.profile.tot * fraction)
    plan = cs.plan_for(cap)
    ep = get_exec_plan(cs, cap, ctx.spec, True)
    assert ep is plan.tables  # the run reads the plan's own tables
    nprocs = cs.num_procs
    # Counted on the plan's name view.
    pts = [mp for proc_pts in plan.points for mp in proc_pts]
    maps = len(pts)
    pkgs = sum(len(mp.notifications) for mp in pts)
    owned = {f: len(getattr(ep, f)) for f in MapTables._fields}
    want = {
        "map_first": nprocs + 1, "map_pos": maps + nprocs,
        "mf_ptr": maps + nprocs + 1, "ma_ptr": maps + nprocs + 1,
        "mp_ptr": maps + nprocs + 1,
        "mf_oid": sum(len(mp.frees) for mp in pts),
        "ma_oid": sum(len(mp.allocs) for mp in pts),
        "pkg_src": pkgs, "pkg_dst": pkgs, "pkg_ptr": pkgs + 1,
        "pkg_oid": sum(len(objs) for mp in pts
                       for objs in mp.notifications.values()),
    }
    # Every field is a MAP table: the run reads its other inputs from
    # the simulator, the spec and the mapping's per-spec costs.
    assert owned == want
    # None of it grows with the tasks: far fewer entries than tasks.
    assert sum(owned.values()) < cs.graph.num_tasks
    res = Simulator(compiled=cs, spec=ctx.spec, capacity=cap).run()
    assert res.engine == "compiled"
    assert sum(s.num_maps for s in res.stats) == maps


def test_preknown_addresses_share_the_exec_plan():
    ctx = ExperimentContext()
    cs = ctx.compiled("chol15", 4, "mpo")
    cap = cs.profile.tot
    runs = {
        preknown: Simulator(compiled=cs, spec=ctx.spec, capacity=cap,
                            preknown_addresses=preknown).run()
        for preknown in (False, True)
    }
    # One plan, planned once, whose tables both runs read.
    assert cs.counters["plan_misses"] == 1
    assert cs.counters["plan_hits"] == 1
    assert get_exec_plan(cs, cap, ctx.spec, True) is cs.plan_for(cap).tables
    assert cs.counters["exec_plan_hits"] == 0
    # The shared plan runs the oracle's preknown-address protocol.
    oracle = Simulator(compiled=cs, spec=ctx.spec, capacity=cap,
                       preknown_addresses=True, engine="interpreted").run()
    assert runs[True].parallel_time == oracle.parallel_time

"""The compiled engine as the default engine.

* The default sweep CSV equals the interpreted oracle's byte for byte,
  with the IR verifier (``REPRO_VERIFY_IR=1``) checking every lowering
  and exec plan the default path builds.
* RCP, MPO and DTS at one P share one mapping-level lowering.
* An exec plan holds only its MAP tables: its size follows the MAPs of
  the plan, not the tasks of the schedule, and runs that differ only in
  ``preknown_addresses`` share it.
"""

import pytest

from repro.experiments import ExperimentContext
from repro.experiments.sweep import full_sweep, to_csv
from repro.machine import compiled as compiled_mod
from repro.machine.compiled import ExecPlan, get_exec_plan, lower_schedule
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
    nprocs = cs.num_procs
    maps = sum(len(pts) for pts in plan.points)
    pkgs = plan.total_packages
    notified = sum(len(objs) for pts in plan.points for mp in pts
                   for objs in mp.notifications.values())
    owned = {f: len(getattr(ep, f)) for f in ExecPlan.__slots__}
    want = {
        "map_first": nprocs,
        "map_pos": maps + nprocs, "map_cost": maps + nprocs,
        "mf_ptr": maps + nprocs + 1, "ma_ptr": maps + nprocs + 1,
        "mp_ptr": maps + nprocs + 1,
        "mf_oid": plan.total_frees, "mf_grp": plan.total_frees,
        "ma_oid": plan.total_allocations,
        "pkg_src": pkgs, "pkg_dst": pkgs, "pkg_objs": pkgs,
        "pkg_ak_ptr": pkgs + 1,
    }
    # Every slot is a MAP table: the run reads its other inputs from
    # the simulator, the spec and the mapping's per-spec costs.
    assert {f: n for f, n in owned.items() if f != "pkg_ak"} == want
    assert owned["pkg_ak"] <= notified
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
    assert cs.counters["exec_plan_misses"] == 1
    assert cs.counters["exec_plan_hits"] == 1
    # The shared plan runs the oracle's preknown-address protocol.
    oracle = Simulator(compiled=cs, spec=ctx.spec, capacity=cap,
                       preknown_addresses=True, engine="interpreted").run()
    assert runs[True].parallel_time == oracle.parallel_time

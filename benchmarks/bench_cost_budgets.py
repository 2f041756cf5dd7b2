"""Cost budgets: what each optional layer may cost against the plain run.

``benchmarks/perf`` (``BENCHMARK.json``) times the whole sweep, and an
end-to-end time cannot say what one layer adds.  Each test here times
the same work with and without one layer, interleaved round-robin so
ambient load hits both sides, best of N, and holds the ratio to a fixed
bound.  Only cost is asserted; the equalities these runs rely on
(compiled == interpreted, traced == plain, proved optima, clean
verdicts) are tier-1 tests.  Run it with (``-s`` prints every ratio)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_cost_budgets.py
"""

import math
import operator
import os
import time

import pytest

from repro.experiments import ExperimentContext
from repro.experiments.sweep import full_sweep
from repro.machine.simulator import ENGINES, Simulator

#: Serial ``chol15`` at 100% memory: every task is silent, so the run
#: isolates the per-event dispatch overhead the compiled engine removes.
ENGINE_CELL = ("chol15", 1, "rcp")
ENGINE_REPEATS = 5
ENGINE_MIN_SPEEDUP = 10.0

#: The heaviest ``lu-goodwin`` grid point at half its TOT, a ~7 ms run.
#: The disabled paths are the plain path, so their ratios are noise that
#: best-of needs many rounds to settle.
OBSERVER_CELL = ("lu-goodwin", 32, "rcp")
OBSERVER_REPEATS = 60
#: ``(config, base, op, bound)``: ``time(config) / time(base) op bound``.
#: A disabled instrument and an inactive ``FaultSpec`` ride the plain
#: path; metrics and the invariant checker observe every event.  The
#: static analyzer proves what a checked run (fresh checker and
#: simulator) observes, on the same memoised plan, without an event loop.
OBSERVER_BUDGETS = [
    ("null_instrument", "plain", "<", 1.25),
    ("null_faults", "plain", "<", 1.25),
    ("metrics", "plain", "<", 5.0),
    ("checked", "plain", "<", 5.0),
    ("checked", "analyze", ">=", 5.0),
]

#: Certified bounds vs a cold ``analyze_schedule`` on the same cell.  Both
#: are millisecond-scale or less, hence the many repeats; the first one
#: pays the cold graph-index build.  ``certified_bounds`` memoises its
#: result per mapping, so the bounds side times the computation behind
#: the memo.  The floor is derived from recorded runs (CHANGES.md).
BOUNDS_REPEATS = 50
BOUNDS_MIN_RATIO = 1.5

#: Supervised and traced sweeps against the plain pool on a three-group
#: slice of the default grid, pool start-up included on both sides.  A
#: multiple of three rounds puts each of the three sweeps in each
#: position of the interleaving equally often.
RUNTIME_GRID = dict(
    workloads=("lu-goodwin",),
    procs=(2, 4, 8),
    heuristics=("rcp", "mpo"),
    fractions=(1.0, 0.5),
)
RUNTIME_REPEATS = 9
RUNTIME_MAX_RATIO = 1.25

OPS = {"<": operator.lt, ">": operator.gt, ">=": operator.ge}


def best_of(repeats: int, runs: dict) -> dict:
    """Best wall time of each zero-argument callable in ``runs`` over
    ``repeats`` interleaved rounds.  Each round starts one callable later
    than the round before, so none always runs first or always follows
    the same neighbour."""
    names = list(runs)
    best = dict.fromkeys(names, math.inf)
    for r in range(repeats):
        k = r % len(names)
        for name in names[k:] + names[:k]:
            t0 = time.perf_counter()
            runs[name]()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def within(name: str, ratio: float, op: str, bound: float) -> None:
    print(f"{name}: {ratio:.3f} ({op} {bound})")
    assert OPS[op](ratio, bound), f"{name} = {ratio:.3f}, budget {op} {bound}"


def test_compiled_engine_speedup():
    ctx = ExperimentContext()
    cs = ctx.compiled(*ENGINE_CELL)
    sims = {
        engine: Simulator(spec=ctx.spec, capacity=cs.profile.tot,
                          compiled=cs, engine=engine)
        for engine in ENGINES
    }
    assert sims["compiled"].run().engine == "compiled"
    best = best_of(ENGINE_REPEATS, {e: s.run for e, s in sims.items()})
    within("engine speedup", best["interpreted"] / best["compiled"],
           ">=", ENGINE_MIN_SPEEDUP)


@pytest.fixture(scope="module")
def observer_times():
    from repro.analysis import analyze_plan
    from repro.conformance import FaultSpec, InvariantChecker
    from repro.obs import NULL_INSTRUMENT

    ctx = ExperimentContext()
    cs = ctx.compiled(*OBSERVER_CELL)
    capacity = cs.profile.tot // 2
    plan = cs.plan_for(capacity)

    def sim(**kw):
        return Simulator(spec=ctx.spec, capacity=capacity, compiled=cs, **kw)

    return best_of(OBSERVER_REPEATS, {
        "plain": sim().run,
        "null_instrument": sim(instrument=NULL_INSTRUMENT).run,
        "null_faults": sim(faults=FaultSpec()).run,
        "metrics": sim(metrics=True).run,
        "checked": lambda: sim(instrument=InvariantChecker(cs)).run(),
        "analyze": lambda: analyze_plan(plan),
    })


@pytest.mark.parametrize("config,base,op,bound", OBSERVER_BUDGETS,
                         ids=[f"{c}_vs_{b}" for c, b, _, _ in OBSERVER_BUDGETS])
def test_observer_cost(observer_times, config, base, op, bound):
    within(f"{config}_vs_{base}",
           observer_times[config] / observer_times[base], op, bound)


def test_bounds_are_cheaper_than_the_analyzer():
    import repro.core.index as index_mod
    from repro.analysis import analyze_schedule
    from repro.analysis.bounds import _bound_set
    from repro.core.index import graph_index
    from repro.core.schedule import UNIT_COMM
    from repro.graph.paper_example import schedule_c

    ctx = ExperimentContext()
    cells = {
        "paper": (schedule_c(), UNIT_COMM),
        "etree15": (ctx.schedule("etree15", 2, "rcp"),
                    ctx.spec.comm_model()),
    }
    best = {}
    for name, (s, comm) in cells.items():
        index_mod._INDEX_CACHE.clear()  # the first repeat pays the build

        def bounds():
            gi = graph_index(s.graph)
            mi = gi.mapping(s.placement, s.assignment)
            return _bound_set(s.graph, s.placement, s.assignment, comm, gi, mi)

        best[name] = best_of(BOUNDS_REPEATS, {
            "bounds": bounds,
            "analyze": lambda: analyze_schedule(s, fraction=1.0),
        })
    within("etree_vs_analyze",
           best["etree15"]["analyze"] / best["etree15"]["bounds"],
           ">=", BOUNDS_MIN_RATIO)
    within("aggregate_vs_analyze",
           sum(b["analyze"] for b in best.values())
           / sum(b["bounds"] for b in best.values()),
           ">=", BOUNDS_MIN_RATIO)


def test_supervision_and_tracing_overhead(tmp_path):
    from repro.experiments.runtime import RuntimePolicy

    kw = dict(RUNTIME_GRID, jobs=max(2, os.cpu_count() or 2))
    best = best_of(RUNTIME_REPEATS, {
        "plain": lambda: full_sweep(ExperimentContext(), **kw),
        "supervised": lambda: full_sweep(
            ExperimentContext(), runtime=RuntimePolicy(), **kw),
        # Shards are append-only files per process: repeats share a dir.
        "traced": lambda: full_sweep(
            ExperimentContext(), runtime=RuntimePolicy(),
            obs_dir=str(tmp_path), **kw),
    })
    within("supervised_vs_plain", best["supervised"] / best["plain"],
           "<", RUNTIME_MAX_RATIO)
    # Tracing is priced against the untraced supervised sweep.
    within("traced_vs_plain", best["traced"] / best["supervised"],
           "<", RUNTIME_MAX_RATIO)


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="below 4 CPUs one worker saturates the host")
def test_parallel_sweep_is_faster_than_serial():
    best = best_of(1, {
        "serial": lambda: full_sweep(ExperimentContext(), jobs=1),
        "parallel": lambda: full_sweep(ExperimentContext(),
                                       jobs=os.cpu_count()),
    })
    within("parallel sweep speedup", best["serial"] / best["parallel"],
           ">", 1.0)

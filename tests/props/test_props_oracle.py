"""Oracle-driven properties: the heuristics against the exact solver.

The branch-and-bound of :mod:`repro.opt.exact` is the ground truth on
instances small enough to prove; these properties pin every heuristic
(and the solver itself) against it:

* no heuristic ever beats a ``PROVED_OPTIMAL`` value;
* the solver's answer is invariant under task/object relabeling and
  processor renumbering;
* exhausting the node budget degrades to ``BEST_FOUND`` — never to a
  wrong ``PROVED_OPTIMAL`` claim;
* capacity handling is sound (feasible at the optimum, provably
  infeasible below it).

Time comparisons carry a 1e-9 slop: the solver prunes with float lower
bounds that associate additions differently from the Gantt evaluation,
so proved makespans are optimal up to ``repro.opt.exact.TIME_EPS``.
The memory objective is integral and compared exactly.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from relabel import relabel

from repro.core import (
    UNIT_COMM,
    Placement,
    analyze_memory,
    cyclic_placement,
    dts_order,
    etf_schedule,
    gantt,
    mpo_order,
    owner_compute_assignment,
    rcp_order,
    tree_order,
)
from repro.errors import SchedulingError
from repro.graph import generators as gen
from repro.opt.exact import (
    BEST_FOUND,
    PROVED_OPTIMAL,
    exact_order,
    solve,
    solve_over_placements,
)

OBJECTIVES = ("time", "memory")
TOL = {"time": 1e-9, "memory": 0.0}
HEURISTICS = {
    "rcp": rcp_order,
    "mpo": mpo_order,
    "dts": dts_order,
    "tree": tree_order,
}

#: Small instances: every one proves within the default budget (the
#: differential campaign measured a median of ~31 B&B nodes here).
params = st.tuples(
    st.integers(4, 7),  # accesses
    st.integers(2, 4),  # objects
    st.integers(0, 10_000),  # seed
    st.integers(2, 3),  # processors
)


def make(ps):
    n, m, seed, p = ps
    g = gen.random_trace(n, m, seed=seed)
    pl = cyclic_placement(g, p)
    return g, pl, owner_compute_assignment(g, pl)


def value_of(schedule, objective):
    if objective == "time":
        return gantt(schedule, UNIT_COMM).makespan
    return float(analyze_memory(schedule).min_mem)


# ----------------------------------------------------------------------
# The oracle bound: nothing beats a proved optimum
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(HEURISTICS))
@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=15)
@given(ps=params)
def test_heuristic_never_beats_proved_optimum(ps, name, objective):
    g, pl, asg = make(ps)
    res = solve(g, pl, asg, objective=objective)
    assume(res.proved)
    val = value_of(HEURISTICS[name](g, pl, asg), objective)
    assert val >= res.value - TOL[objective]


@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=15)
@given(ps=params)
def test_etf_never_beats_optimum_of_its_own_mapping(ps, objective):
    # ETF picks its own placement, so it is only bounded by the exact
    # optimum *of the mapping it chose* — not by the owner-compute one
    # (which it may legitimately beat on time).
    g, pl, _asg = make(ps)
    sched = etf_schedule(g, pl.num_procs, UNIT_COMM)
    res = solve(g, sched.placement, sched.assignment, objective=objective)
    assume(res.proved)
    assert value_of(sched, objective) >= res.value - TOL[objective]


@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=15)
@given(ps=params)
def test_incumbent_never_worse_than_any_seed(ps, objective):
    g, pl, asg = make(ps)
    res = solve(g, pl, asg, objective=objective)
    for fn in HEURISTICS.values():
        assert res.value <= value_of(fn(g, pl, asg), objective) + TOL[objective]


# ----------------------------------------------------------------------
# Solver self-consistency
# ----------------------------------------------------------------------


@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=15)
@given(ps=params)
def test_small_instances_always_prove(ps, objective):
    g, pl, asg = make(ps)
    assume(g.num_tasks <= 8)
    res = solve(g, pl, asg, objective=objective)
    assert res.status == PROVED_OPTIMAL


@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=15)
@given(ps=params)
def test_result_schedule_realizes_reported_value(ps, objective):
    g, pl, asg = make(ps)
    res = solve(g, pl, asg, objective=objective)
    res.schedule.validate()
    assert abs(value_of(res.schedule, objective) - res.value) <= 1e-9


@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=15)
@given(ps=params)
def test_lower_bound_never_exceeds_value(ps, objective):
    g, pl, asg = make(ps)
    res = solve(g, pl, asg, objective=objective)
    assert res.lower_bound <= res.value + TOL["time"]


@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=10)
@given(ps=params)
def test_solver_is_deterministic(ps, objective):
    g, pl, asg = make(ps)
    a = solve(g, pl, asg, objective=objective)
    b = solve(g, pl, asg, objective=objective)
    assert (a.value, a.nodes, a.status) == (b.value, b.nodes, b.status)


# ----------------------------------------------------------------------
# Invariance under renaming
# ----------------------------------------------------------------------


@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=10)
@given(ps=params)
def test_invariant_under_label_permutation(ps, objective):
    g, pl, asg = make(ps)
    res = solve(g, pl, asg, objective=objective)
    assume(res.proved)
    # Reverse-sorted fresh names: a nontrivial bijection on labels.
    tmap = {t: f"q{i}" for i, t in enumerate(sorted(
        (t.name for t in g.tasks()), reverse=True))}
    omap = {o: f"z{i}" for i, o in enumerate(sorted(
        (o.name for o in g.objects()), reverse=True))}
    g2 = relabel(g, tmap, omap)
    pl2 = Placement(pl.num_procs, {
        omap[o]: pl[o] for o in (o.name for o in g.objects())
    })
    asg2 = {tmap[t]: p for t, p in asg.items()}
    res2 = solve(g2, pl2, asg2, objective=objective)
    assert res2.proved
    assert abs(res2.value - res.value) <= TOL["time"]


@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=10)
@given(ps=params)
def test_invariant_under_processor_renumbering(ps, objective):
    g, pl, asg = make(ps)
    res = solve(g, pl, asg, objective=objective)
    assume(res.proved)
    p = pl.num_procs
    pl2 = Placement(p, {
        o.name: (pl[o.name] + 1) % p for o in g.objects()
    })
    asg2 = {t: (q + 1) % p for t, q in asg.items()}
    res2 = solve(g, pl2, asg2, objective=objective)
    assert res2.proved
    assert abs(res2.value - res.value) <= TOL["time"]


# ----------------------------------------------------------------------
# Budget exhaustion and capacity soundness
# ----------------------------------------------------------------------


@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=15)
@given(ps=params)
def test_budget_exhaustion_never_claims_wrong_optimum(ps, objective):
    g, pl, asg = make(ps)
    full = solve(g, pl, asg, objective=objective)
    assume(full.proved)
    starved = solve(g, pl, asg, objective=objective, node_budget=1)
    assert starved.status in (PROVED_OPTIMAL, BEST_FOUND)
    assert starved.value >= full.value - TOL[objective]
    assert starved.lower_bound <= full.value + TOL["time"]
    if starved.proved:
        # A proof under starvation (seed met the root bound) must agree.
        assert abs(starved.value - full.value) <= TOL["time"]


@settings(max_examples=15)
@given(ps=params)
def test_capacity_at_memory_optimum_is_feasible(ps):
    g, pl, asg = make(ps)
    full = solve(g, pl, asg, objective="memory")
    assume(full.proved)
    opt = int(full.value)
    res = solve(g, pl, asg, objective="memory", capacity=opt)
    assert res.schedule is not None
    assert analyze_memory(res.schedule).min_mem <= opt


@settings(max_examples=15)
@given(ps=params)
def test_capacity_below_memory_optimum_is_proved_infeasible(ps):
    g, pl, asg = make(ps)
    full = solve(g, pl, asg, objective="memory")
    assume(full.proved)
    opt = int(full.value)
    res = solve(g, pl, asg, objective="memory", capacity=opt - 1)
    if res.proved:
        assert res.schedule is None
        with pytest.raises(SchedulingError):
            exact_order(g, pl, asg, objective="memory", capacity=opt - 1)


# ----------------------------------------------------------------------
# Placement enumeration
# ----------------------------------------------------------------------


@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=10)
@given(ps=params)
def test_solve_over_placements_takes_the_best_case(ps, objective):
    g, pl, asg = make(ps)
    p = pl.num_procs
    shifted = Placement(p, {
        o.name: (pl[o.name] + 1) % p for o in g.objects()
    })
    cases = [(pl, asg), (shifted, owner_compute_assignment(g, shifted))]
    best = solve_over_placements(g, cases, objective=objective)
    singles = [
        solve(g, c_pl, c_asg, objective=objective) for c_pl, c_asg in cases
    ]
    assert best.value <= min(s.value for s in singles) + TOL["time"]
    if all(s.proved for s in singles):
        assert best.proved

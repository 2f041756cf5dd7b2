"""Certified-bound and IR-verifier properties against the exact oracle.

A static bound that is ever beaten is not a bound: on every instance
small enough for :mod:`repro.opt.exact` to prove, the certified PT and
MIN_MEM lower bounds of :mod:`repro.analysis.bounds` must sit at or
below the proved optimum.  The bounds are also pure functions of the
graph *structure*: relabeling tasks/objects or renumbering processors
cannot move them, and repeated evaluation is bit-identical.

The same instances exercise the lowered-IR verifier: every shipped
heuristic's lowering must come back SA5xx-clean (the verifier's false
positives would poison the compiled engine's debug path).
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from relabel import relabel

from repro.analysis import certified_bounds, verify_exec_plan
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
from repro.graph import generators as gen
from repro.machine.simulator import CompiledSchedule
from repro.machine.spec import UNIT_MACHINE
from repro.opt.exact import solve

OBJECTIVES = ("time", "memory")
TOL = {"time": 1e-9, "memory": 0.0}
HEURISTICS = {
    "rcp": rcp_order,
    "mpo": mpo_order,
    "dts": dts_order,
    "tree": tree_order,
}

#: Random-trace instances small enough to prove within the budget.
dag_params = st.tuples(
    st.integers(4, 7),  # accesses
    st.integers(2, 4),  # objects
    st.integers(0, 10_000),  # seed
    st.integers(2, 3),  # processors
)

#: Reduction trees: the elimination-forest side of the memory bounds.
tree_params = st.tuples(
    st.integers(2, 6),  # leaves
    st.integers(2, 3),  # processors
)


def make_dag(ps):
    n, m, seed, p = ps
    g = gen.random_trace(n, m, seed=seed)
    pl = cyclic_placement(g, p)
    return g, pl, owner_compute_assignment(g, pl)


def make_tree(ps):
    leaves, p = ps
    g = gen.reduction_tree(leaves)
    pl = cyclic_placement(g, p)
    return g, pl, owner_compute_assignment(g, pl)


def optimum(g, pl, asg, objective):
    res = solve(g, pl, asg, objective=objective)
    assume(res.proved)
    return res.value


# ----------------------------------------------------------------------
# Soundness: a certified bound never exceeds a proved optimum
# ----------------------------------------------------------------------


@pytest.mark.parametrize("make", [make_dag], ids=["dag"])
@given(ps=dag_params)
def test_bounds_never_beat_the_proved_optima(ps, make):
    g, pl, asg = make(ps)
    bs = certified_bounds(g, pl, asg)
    assert bs.pt.value <= optimum(g, pl, asg, "time") + TOL["time"]
    assert bs.min_mem.value <= optimum(g, pl, asg, "memory")


@given(ps=tree_params)
def test_tree_bounds_never_beat_the_proved_optima(ps):
    g, pl, asg = make_tree(ps)
    bs = certified_bounds(g, pl, asg)
    assert bs.pt.value <= optimum(g, pl, asg, "time") + TOL["time"]
    assert bs.min_mem.value <= optimum(g, pl, asg, "memory")


@given(ps=dag_params)
def test_every_candidate_is_itself_sound(ps):
    # Not just the winner: every member of the candidate portfolio is
    # a valid lower bound on its metric.
    g, pl, asg = make_dag(ps)
    bs = certified_bounds(g, pl, asg)
    opts = {obj: optimum(g, pl, asg, obj) for obj in OBJECTIVES}
    for c in bs.candidates:
        ceiling = opts["time" if c.metric == "pt" else "memory"]
        assert c.value <= ceiling + TOL["time"]


@pytest.mark.parametrize("name", sorted(HEURISTICS))
@given(ps=dag_params)
def test_no_heuristic_schedule_undercuts_a_bound(ps, name):
    # Cheaper than the oracle and runs on every draw: any real
    # schedule's PT/MIN_MEM respects the static floor.
    g, pl, asg = make_dag(ps)
    bs = certified_bounds(g, pl, asg)
    s = HEURISTICS[name](g, pl, asg)
    assert gantt(s, UNIT_COMM).makespan >= bs.pt.value - TOL["time"]
    assert analyze_memory(s).min_mem >= bs.min_mem.value


# ----------------------------------------------------------------------
# Invariance: structure in, structure out
# ----------------------------------------------------------------------


@given(ps=dag_params, seed=st.integers(0, 2**31 - 1))
def test_bounds_invariant_under_relabeling(ps, seed):
    import random

    g, pl, asg = make_dag(ps)
    rng = random.Random(seed)
    tnames = list(g.task_names)
    onames = [o.name for o in g.objects()]
    tperm = rng.sample(tnames, len(tnames))
    operm = rng.sample(onames, len(onames))
    tmap = {a: f"t{i}_{b}" for i, (a, b) in enumerate(zip(tnames, tperm))}
    omap = {a: f"o{i}_{b}" for i, (a, b) in enumerate(zip(onames, operm))}
    h = relabel(g, tmap, omap)
    pl2 = Placement(pl.num_procs, {omap[o]: p for o, p in pl.owner.items()})
    asg2 = {tmap[t]: p for t, p in asg.items()}
    a, b = certified_bounds(g, pl, asg), certified_bounds(h, pl2, asg2)
    assert a.pt.value == b.pt.value
    assert a.min_mem.value == b.min_mem.value


@given(ps=dag_params)
def test_bounds_invariant_under_processor_renumbering(ps):
    g, pl, asg = make_dag(ps)
    p = pl.num_procs
    perm = {q: (q + 1) % p for q in range(p)}  # cyclic shift
    pl2 = Placement(p, {o: perm[q] for o, q in pl.owner.items()})
    asg2 = {t: perm[q] for t, q in asg.items()}
    a, b = certified_bounds(g, pl, asg), certified_bounds(g, pl2, asg2)
    assert a.pt.value == b.pt.value
    assert a.min_mem.value == b.min_mem.value


@given(ps=dag_params)
def test_bounds_deterministic(ps):
    g, pl, asg = make_dag(ps)
    assert certified_bounds(g, pl, asg) == certified_bounds(g, pl, asg)


# ----------------------------------------------------------------------
# The IR verifier is clean on every shipped lowering
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(HEURISTICS))
@settings(max_examples=10)
@given(ps=dag_params)
def test_heuristic_lowerings_verify_clean(ps, name):
    g, pl, asg = make_dag(ps)
    cs = CompiledSchedule(HEURISTICS[name](g, pl, asg))
    assert verify_exec_plan(cs, cs.profile.tot, UNIT_MACHINE) == []


@settings(max_examples=10)
@given(ps=dag_params)
def test_etf_lowering_verifies_clean(ps):
    g, pl, _asg = make_dag(ps)
    cs = CompiledSchedule(etf_schedule(g, pl.num_procs, UNIT_COMM))
    assert verify_exec_plan(cs, cs.profile.tot, UNIT_MACHINE) == []


@settings(max_examples=10)
@given(ps=tree_params)
def test_tree_lowerings_verify_clean(ps):
    g, pl, asg = make_tree(ps)
    cs = CompiledSchedule(tree_order(g, pl, asg))
    assert verify_exec_plan(cs, cs.profile.tot, UNIT_MACHINE) == []

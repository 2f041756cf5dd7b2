"""The one combined-graph walk and the one cycle search against the
frozen per-module copies (:mod:`reference_walks`).

:func:`repro.core.schedule.combined_walk` replaced three Kahn walks
(``gantt``'s, ``global_order``'s and the ``SA304`` check's) and
:func:`repro.core.dcg.find_cycle` two depth-first searches; the witness
lines come from :func:`repro.core.dcg.wait_for_lines`.  On seeded
schedules, valid and misordered, every output must equal the
reference's: Gantt times, the global order, the ``SA304`` finding and
its wait edges, the ``SA301`` witness, and the dynamic deadlock witness
(or the same error where the reference raised).
"""

from unittest import mock

from hypothesis import given, seed, settings, strategies as st

import reference_walks as ref
from repro.analysis import protocol
from repro.analysis.engine import AnalysisContext
from repro.conformance import invariants
from repro.core import cyclic_placement, gantt, owner_compute_assignment
from repro.core.liveness import analyze_memory
from repro.errors import DeadlockError, SchedulingError
from repro.graph import generators
from repro.rapid.executor import global_order
from repro.rapid.inspector import order_with


def outcome(fn, *args):
    """``fn(*args)``, or the text of the :class:`SchedulingError` it
    raised."""
    try:
        return fn(*args)
    except SchedulingError as err:
        return f"SchedulingError: {err}"


def times(fn, sched):
    chart = outcome(fn, sched)
    return chart if isinstance(chart, str) else (chart.start, chart.finish)


def protocol_rows(sched):
    # A fresh profile per call: the SA304 finding is memoised on it.
    ctx = AnalysisContext(capacity=0, profile=analyze_memory(sched),
                          plan=None)
    return [(d.rule, d.message, d.task, d.proc, d.cycle, d.witness)
            for d in protocol.protocol_pass(ctx)]


def reference_finding(profile):
    """The reference ``SA304`` finding, which read the schedule itself."""
    return ref._order_cycle_finding(profile.schedule)


def reference_protocol_rows(sched):
    with mock.patch.object(protocol, "_order_cycle_finding",
                           reference_finding), \
            mock.patch.object(protocol, "_witness", ref._witness):
        return protocol_rows(sched)


def misorder(sched, how, data):
    """Reverse one processor's order, or swap two of its tasks."""
    p = data.draw(st.integers(0, sched.num_procs - 1), label="proc")
    order = sched.orders[p]
    if how == "reverse":
        order.reverse()
    elif how == "swap" and len(order) > 1:
        i, j = data.draw(st.lists(st.integers(0, len(order) - 1),
                                  min_size=2, max_size=2, unique=True),
                         label="swap")
        order[i], order[j] = order[j], order[i]


@seed(34)
@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(("layered", "trace")),
    graph_seed=st.integers(0, 59),
    procs=st.integers(2, 4),
    heuristic=st.sampled_from(("rcp", "mpo", "dts", "tree")),
    how=st.sampled_from(("none", "reverse", "swap")),
    data=st.data(),
)
def test_walks_match_the_reference(family, graph_seed, procs, heuristic,
                                   how, data):
    g = (generators.layered_random(5, 6, seed=graph_seed)
         if family == "layered"
         else generators.random_trace(40, 8, seed=graph_seed))
    pl = cyclic_placement(g, procs)
    sched = order_with(heuristic, g, pl, owner_compute_assignment(g, pl))
    misorder(sched, how, data)

    assert times(gantt, sched) == times(ref.gantt, sched)
    assert outcome(global_order, sched) == outcome(ref.global_order, sched)
    assert (protocol._order_cycle_finding(analyze_memory(sched))
            == ref._order_cycle_finding(sched))
    assert protocol_rows(sched) == reference_protocol_rows(sched)


wait_for_graphs = st.integers(1, 5).flatmap(lambda n: st.dictionaries(
    st.integers(0, n - 1), st.sets(st.integers(0, n - 1), max_size=3),
    max_size=n))


@seed(34)
@settings(max_examples=200, deadline=None)
@given(wait_for=wait_for_graphs)
def test_deadlock_witness_matches_the_reference(wait_for):
    err = DeadlockError({p: "REC" for p in wait_for}, 3, 7)
    err.details = {p: f"next=t{p}" for p in wait_for}
    err.wait_for = wait_for
    assert invariants.find_cycle(wait_for) == ref.find_cycle(wait_for)
    assert invariants.deadlock_witness(err) == ref.deadlock_witness(err)

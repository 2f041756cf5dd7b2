"""Unobserved differential tests under faults and ties: the path that
runs by default.

:mod:`tests.machine.test_hook_stream` compares the engines with a
recorder attached, so the compiled engine steps every silent run task
by task through its hooks there.  With no instrument it runs the
silent-run kernel and takes a completion strictly before the queue
head as its next event without a heap round-trip, and that is the path
these cases compare with the interpreted oracle, under every active
fault preset (seeds 0 and 1) and with ``preknown_addresses=True``:

* the tie-heavy paper example on :data:`UNIT_MACHINE`;
* unit-weight ``layered_random`` DAGs on :data:`UNIT_MACHINE`, where
  many events share a timestamp;
* the lu-goodwin P=4 and chol15 P=2 sweep cells.

Each run's :class:`~repro.machine.simulator.SimResult`, its
:class:`~repro.machine.simulator.ProcessorStats` included, must be
equal field for field on both engines, or both must raise the same
error with the same message.
"""

import dataclasses

import pytest

from repro.conformance import FAULT_KINDS, fault_preset
from repro.core import cyclic_placement, owner_compute_assignment
from repro.errors import ReproError
from repro.graph import generators as gen
from repro.graph.paper_example import paper_example_graph, schedule_b, schedule_c
from repro.machine import UNIT_MACHINE, Simulator
from repro.machine.simulator import CompiledSchedule
from repro.rapid.inspector import order_with

#: The presets that perturb the run itself (``tighten`` only picks the
#: capacity, which the cases below sweep anyway).
ACTIVE_FAULTS = [k for k in FAULT_KINDS if fault_preset(k).active]

CONDITIONS = [
    pytest.param(dict(faults=fault_preset(kind, seed)), id=f"{kind}-s{seed}")
    for kind in ACTIVE_FAULTS for seed in (0, 1)
] + [pytest.param(dict(preknown_addresses=True), id="preknown")]


def _run(engine, kw):
    try:
        return Simulator(engine=engine, **kw).run()
    except ReproError as err:
        return type(err).__name__, str(err)


def assert_exact(**kw):
    """Both engines, no instrument: equal results or the same error."""
    ra, rb = _run("interpreted", kw), _run("compiled", kw)
    if isinstance(ra, tuple) or isinstance(rb, tuple):
        assert ra == rb
        return
    assert (ra.engine, rb.engine) == ("interpreted", "compiled")
    assert ra.stats == rb.stats
    assert dataclasses.replace(ra, engine="compiled") == rb


@pytest.fixture(scope="module")
def sweep_ctx():
    from repro.experiments import ExperimentContext

    return ExperimentContext()


@pytest.mark.parametrize("kw", CONDITIONS)
class TestUnobserved:
    @pytest.mark.parametrize("sched_f", [schedule_b, schedule_c])
    def test_paper_example(self, kw, sched_f):
        cs = CompiledSchedule(sched_f(paper_example_graph()))
        prof = cs.profile
        for cap in sorted({prof.min_mem, (prof.min_mem + prof.tot) // 2,
                           prof.tot}):
            assert_exact(spec=UNIT_MACHINE, capacity=cap, compiled=cs, **kw)

    @pytest.mark.parametrize("seed", range(3))
    def test_unit_layered(self, kw, seed):
        g = gen.layered_random(5, 4, seed=seed, min_weight=1.0,
                               max_weight=1.0, min_size=1, max_size=1)
        pl = cyclic_placement(g, 3)
        asg = owner_compute_assignment(g, pl)
        for h in ("rcp", "mpo", "dts"):
            cs = CompiledSchedule(order_with(h, g, pl, asg))
            for cap in sorted({cs.profile.min_mem, cs.profile.tot}):
                assert_exact(spec=UNIT_MACHINE, capacity=cap, compiled=cs,
                             **kw)

    @pytest.mark.parametrize("key,procs", [("lu-goodwin", 4), ("chol15", 2)])
    def test_sweep_cells(self, kw, key, procs, sweep_ctx):
        for h in ("rcp", "mpo", "dts"):
            cs = sweep_ctx.compiled(key, procs, h)
            for cap in sorted({cs.profile.min_mem, cs.profile.tot}):
                assert_exact(spec=sweep_ctx.spec, capacity=cap, compiled=cs,
                             **kw)

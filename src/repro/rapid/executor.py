"""Executors: serial numeric execution and schedule linearization.

Two layers of execution exist in the reproduction:

* the **timed** executor is :class:`repro.machine.simulator.Simulator`
  (distributed memory, RMA, active memory management);
* the **numeric** executor here runs the tasks' Python kernels against a
  shared object store, in an order consistent with a given schedule
  (the walk order of :func:`repro.core.schedule.combined_walk`, one
  linearization of Definition 1's combined graph) — used to verify
  that every schedule the library produces preserves the program
  semantics (the dependence-completeness guarantee of section 3.4:
  any dependence-respecting interleaving computes the same values).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.schedule import Schedule, combined_walk, number_schedule
from ..errors import SchedulingError
from ..graph.taskgraph import TaskGraph


def execute_serial(
    graph: TaskGraph, store: dict, order: Optional[Sequence[str]] = None
) -> dict:
    """Run every task kernel in ``order`` (default: a topological order).

    Tasks without kernels are skipped (pure-timing graphs).  Returns the
    store for chaining.
    """
    seq = list(order) if order is not None else graph.topological_order()
    if len(seq) != graph.num_tasks:
        raise SchedulingError(
            f"order covers {len(seq)} of {graph.num_tasks} tasks"
        )
    for name in seq:
        t = graph.task(name)
        if t.kernel is not None:
            t.kernel(store)
    return store


def global_order(schedule: Schedule) -> list[str]:
    """A single global linearization consistent with a schedule: the
    task names in :func:`~repro.core.schedule.combined_walk` order.
    Raises :class:`~repro.errors.SchedulingError` for a malformed
    schedule (:func:`~repro.core.schedule.number_schedule`) and when the
    schedule conflicts with the dependences.
    """
    gi, _, tid_at, proc_start = number_schedule(schedule)
    walk, unreached, _ = combined_walk(gi, tid_at, proc_start)
    if unreached:
        raise SchedulingError("schedule orders conflict with dependences")
    return [gi.names[i] for i in walk]


def execute_schedule(schedule: Schedule, store: dict) -> dict:
    """Numerically execute a schedule's interleaving (kernels only)."""
    return execute_serial(schedule.graph, store, global_order(schedule))

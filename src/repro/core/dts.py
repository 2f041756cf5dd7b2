"""DTS — Data-access directed Time Slicing (section 4.2).

DTS is the aggressive memory-saving ordering: it slices the computation
via the DCG (see :mod:`repro.core.dcg`) so that all tasks within a slice
access a small group of volatile objects, then schedules slice by slice.
Within a slice, ready tasks are ordered by critical-path priority; a
ready task of a later slice is *not* scheduled while its processor still
has unscheduled tasks of earlier slices (the slice gate of the list
scheduler).

Theorem 2: a DTS schedule with slices ``L_1..L_k`` and assignment ``R``
is executable under ``S1/p + h`` per-processor space, where
``h = max_i H(R, L_i)`` — because once a slice's tasks have run, all its
volatile objects are dead (any later user would have placed the task in
this slice).  :func:`dts_space_bound` exposes the bound, and the test
suite asserts it against :func:`repro.core.liveness.analyze_memory`.

When the available memory is known, consecutive slices are merged while
their combined volatile requirement fits (Figure 6), giving the
scheduler more critical-path freedom — the "DTS with slice merging"
variant of Table 7.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..errors import SchedulingError
from ..graph.taskgraph import TaskGraph
from .dcg import mapping_slice_space, shared_dcg
from .index import mapping_index
from .listsched import BoundPolicy, run_list_scheduler
from .placement import Placement
from .rcp import mapping_b_levels
from .schedule import CommModel, Schedule, UNIT_COMM


def merge_slices(h_values: list[int], avail_volatile: int) -> list[int]:
    """Figure 6: greedily merge consecutive slices while the *sum* of
    their volatile requirements fits in ``avail_volatile``.

    Returns ``new_index[i]`` — the merged slice of original slice ``i``.
    The sum is a safe over-estimate of the merged slice's requirement.

    Raises :class:`~repro.errors.SchedulingError` when the budget is not
    positive or a single slice already needs more than the budget —
    merging such an input would silently produce a slicing whose
    schedule can never execute under the capacity, and the failure would
    only surface much later as a confusing planner/simulator error.
    """
    if not h_values:
        return []
    if avail_volatile <= 0:
        raise SchedulingError(
            "slice merging needs a positive volatile budget "
            f"(got {avail_volatile}; the permanent footprint already "
            "exhausts the capacity)"
        )
    for i, h in enumerate(h_values):
        if h > avail_volatile:
            raise SchedulingError(
                f"slice {i} needs {h} volatile bytes but only "
                f"{avail_volatile} are available; no merging can make "
                "this schedule executable"
            )
    new_index = [0] * len(h_values)
    space_req = h_values[0]
    k = 0
    for i in range(1, len(h_values)):
        if space_req + h_values[i] <= avail_volatile:
            space_req += h_values[i]
        else:
            k += 1
            space_req = h_values[i]
        new_index[i] = k
    return new_index


def dts_order(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    comm: CommModel = UNIT_COMM,
    avail_mem: Optional[int] = None,
) -> Schedule:
    """Order tasks slice-by-slice (DTS) on the graph's shared DCG
    (:func:`~repro.core.dcg.shared_dcg`).

    Parameters
    ----------
    avail_mem:
        Per-processor memory capacity.  When given, consecutive slices
        are merged while they jointly fit (Figure 6) — pass ``None`` for
        plain DTS.
    """
    dcg = shared_dcg(graph)
    mi = mapping_index(graph, placement, assignment)
    slice_of = dcg.slice_of()
    h_values = mapping_slice_space(dcg, mi)
    h = max(h_values, default=0)

    merged = False
    if avail_mem is not None:
        # Volatile budget: capacity minus the largest permanent footprint.
        budget = avail_mem - max(mi.perm_bytes, default=0)
        try:
            new_index = merge_slices(h_values, budget)
        except SchedulingError:
            # Over-budget slice (or no volatile budget at all): merging
            # cannot help, so fall back to plain DTS — the most
            # memory-frugal ordering; downstream MIN_MEM checks decide
            # executability.
            pass
        else:
            slice_of = {t: new_index[s] for t, s in slice_of.items()}
            merged = True

    keys = [-b for b in mapping_b_levels(graph, mi, comm)]
    info = {
        "heuristic": "DTS+merge" if merged else "DTS",
        "num_slices": len(set(slice_of.values())) if slice_of else 0,
        "dts_h": h,
        "dcg_acyclic": dcg.is_acyclic(),
    }
    return run_list_scheduler(
        graph, placement, assignment, BoundPolicy(keys.__getitem__),
        comm=comm, levels=slice_of, meta=info,
    )


def dts_space_bound(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
) -> int:
    """Theorem 2's per-processor space bound for a DTS schedule:
    ``max_P perm_bytes(P) + max_i H(R, L_i)``.

    (The theorem states ``S1/p + h`` under the assumption that the
    assignment distributes permanent space evenly; this function uses the
    actual permanent footprint, which is the tight form.)
    """
    dcg = shared_dcg(graph)
    mi = mapping_index(graph, placement, assignment)
    h = max(mapping_slice_space(dcg, mi), default=0)
    return max(mi.perm_bytes, default=0) + h

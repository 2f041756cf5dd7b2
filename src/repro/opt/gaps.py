"""Optimality gaps of the ordering heuristics against the exact solver.

For one (graph, placement, assignment) instance this module runs the
branch-and-bound of :mod:`repro.opt.exact` twice — once per objective —
and measures every heuristic against the outcome:

``gap = value / reference - 1``

where the reference is the proved optimum when the solver finished
(``PROVED_OPTIMAL``: the gap is exact) and a certified lower bound when
the node budget ran out (``BEST_FOUND``: the reported gap is an *upper
bound* on the true gap).  In the unproved case the reference is the
*stronger* of the solver's root lower bound and the closed-form static
bound of :mod:`repro.analysis.bounds` — both are certified, so taking
the max tightens the reported gap without ever overstating it.  ETF
derives its own placement, so its row is flagged ``own_placement`` — it
competes against an optimum computed for the owner-compute placement
and may legitimately beat it on time while losing on memory (the
paper's section 1 argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..core.liveness import analyze_memory
from ..core.placement import Placement
from ..core.schedule import CommModel, Schedule, UNIT_COMM, gantt
from ..analysis.bounds import certified_bounds
from ..graph.taskgraph import TaskGraph
from .exact import DEFAULT_NODE_BUDGET, ExactResult, solve

#: Default heuristic line-up of the scorecard.
GAP_HEURISTICS = ("rcp", "mpo", "dts", "etf", "tree")


@dataclass(frozen=True)
class GapRow:
    """One heuristic's measurement against the exact references."""

    heuristic: str
    pt: float
    peak: int
    gap_pt: float
    gap_peak: float
    #: ETF ignores the given placement; its gaps compare across
    #: placements and the time gap may be negative.
    own_placement: bool = False


@dataclass(frozen=True)
class WorkloadGaps:
    """Scorecard data of one (workload, processors) instance."""

    workload: str
    procs: int
    time: ExactResult
    memory: ExactResult
    rows: tuple[GapRow, ...]
    #: Closed-form static bounds (:mod:`repro.analysis.bounds`) for the
    #: same instance; they strengthen the gap denominators whenever the
    #: solver stopped at ``BEST_FOUND``.
    pt_bound: float = 0.0
    mem_bound: float = 0.0

    @property
    def time_ref(self) -> float:
        """Gap denominator: proved optimum, else the stronger of the
        solver's root lower bound and the certified static bound."""
        if self.time.proved:
            return self.time.value
        return max(self.time.lower_bound, self.pt_bound)

    @property
    def mem_ref(self) -> float:
        if self.memory.proved:
            return self.memory.value
        return max(self.memory.lower_bound, self.mem_bound)

    @property
    def time_ref_source(self) -> str:
        """Provenance of :attr:`time_ref` (``"proved"``,
        ``"solver-bound"`` or ``"static-bound"``)."""
        if self.time.proved:
            return "proved"
        if self.pt_bound > self.time.lower_bound:
            return "static-bound"
        return "solver-bound"

    @property
    def mem_ref_source(self) -> str:
        if self.memory.proved:
            return "proved"
        if self.mem_bound > self.memory.lower_bound:
            return "static-bound"
        return "solver-bound"

    def row(self, heuristic: str) -> GapRow:
        for r in self.rows:
            if r.heuristic == heuristic:
                return r
        raise KeyError(f"no gap row for heuristic {heuristic!r}")


def _heuristic_schedule(
    name: str,
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    comm: CommModel,
) -> tuple[Schedule, bool]:
    # Imported here: repro.rapid.inspector imports repro.opt.exact.
    from ..rapid.inspector import order_with

    if name not in GAP_HEURISTICS:
        raise ValueError(
            f"unknown scorecard heuristic {name!r}; "
            f"use one of {GAP_HEURISTICS}"
        )
    # ETF derives its own placement and assignment.
    return order_with(name, graph, placement, assignment, comm), name == "etf"


def optimality_gaps(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    comm: CommModel = UNIT_COMM,
    *,
    workload: str = "",
    procs: Optional[int] = None,
    heuristics: Sequence[str] = GAP_HEURISTICS,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> WorkloadGaps:
    """Measure every heuristic against the exact solver's references."""
    time_res = solve(
        graph, placement, assignment, comm,
        objective="time", node_budget=node_budget,
    )
    mem_res = solve(
        graph, placement, assignment, comm,
        objective="memory", node_budget=node_budget,
    )
    bset = certified_bounds(graph, placement, assignment, comm)
    t_ref = (
        time_res.value if time_res.proved
        else max(time_res.lower_bound, bset.pt.value)
    )
    m_ref = (
        mem_res.value if mem_res.proved
        else max(mem_res.lower_bound, bset.min_mem.value)
    )
    rows = []
    for name in heuristics:
        sched, own = _heuristic_schedule(
            name, graph, placement, assignment, comm
        )
        pt = gantt(sched, comm).makespan
        peak = analyze_memory(sched).min_mem
        rows.append(
            GapRow(
                heuristic=name,
                pt=pt,
                peak=peak,
                gap_pt=pt / t_ref - 1.0 if t_ref > 0 else 0.0,
                gap_peak=peak / m_ref - 1.0 if m_ref > 0 else 0.0,
                own_placement=own,
            )
        )
    return WorkloadGaps(
        workload=workload,
        procs=procs if procs is not None else placement.num_procs,
        time=time_res,
        memory=mem_res,
        rows=tuple(rows),
        pt_bound=bset.pt.value,
        mem_bound=bset.min_mem.value,
    )

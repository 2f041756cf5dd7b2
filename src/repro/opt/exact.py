"""Small-instance exact solver: branch-and-bound over schedules.

Ground truth for the RCP/MPO/DTS heuristics (ROADMAP item 4).  Under a
fixed data placement and owner-compute assignment, the solver branches
over *global append orders*: at every node one globally-ready task is
appended to its processor's order, its start time fixed immediately by
the macro-dataflow model (``max(processor idle, data arrivals)`` with
:class:`~repro.core.schedule.CommModel` costs on cross-processor
edges).  A complete sequence is exactly one
:class:`~repro.core.schedule.Schedule`; the search space is the set of
per-processor order tuples, i.e. everything the ordering heuristics can
produce.

Pruning rules
-------------

* **Canonical interleavings** — distinct append orders that produce the
  same per-processor orders are collapsed: only sequences whose
  ``(start time, processor)`` keys are nondecreasing are explored.  Any
  valid schedule has exactly one such linearization (when every task
  weight is positive; the filter is disabled otherwise), so each
  schedule is enumerated at most once.
* **Lower bounds (time objective)** — a node is cut when
  ``max(per-processor idle + remaining assigned work,
  ready-task earliest start + its mapping-aware b-level)`` reaches the
  incumbent.  The b-level term is the critical-path bound; the
  remaining-work term is the per-processor refinement of the paper's
  total-work/P bound (work is pre-assigned, so the per-processor form
  dominates the average).
* **Memory feasibility (Defs 5-6)** — volatile liveness is tracked
  incrementally: an object is alive on processor P between the first
  and last scheduled access by P's tasks, which depends only on the
  *set* of appended tasks, never on their interleaving.  The MEM_REQ of
  every appended task (Def 5) therefore equals
  :func:`~repro.core.liveness.analyze_memory`'s value in any completion
  of the prefix, and a prefix exceeding the capacity can be cut without
  losing feasible schedules.
* **Downset memoisation (memory objective)** — the live sets, hence all
  future peaks, are a function of the scheduled set, so a set reached
  again with an equal-or-worse running peak is cut.

A configurable node budget bounds the search: exhausting it degrades
the result to ``BEST_FOUND`` (the incumbent plus a certified root lower
bound); ``PROVED_OPTIMAL`` is reported only when the search space was
exhausted.  The incumbent is seeded from the RCP/MPO/DTS/tree
heuristics, so ``BEST_FOUND`` is never worse than the best heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from ..core.dts import dts_order
from ..core.index import graph_index
from ..core.liveness import analyze_memory
from ..core.mpo import mpo_order
from ..core.placement import Placement
from ..core.rcp import mapping_b_levels, rcp_order
from ..core.schedule import CommModel, Schedule, UNIT_COMM, gantt
from ..core.treesched import tree_order
from ..errors import SchedulingError
from ..graph.taskgraph import TaskGraph

PROVED_OPTIMAL = "PROVED_OPTIMAL"
BEST_FOUND = "BEST_FOUND"

#: Search budget of :func:`solve` (exhaustive proofs on small DAGs).
DEFAULT_NODE_BUDGET = 200_000
#: Search budget of :func:`exact_order` (sweep-facing; improves on the
#: heuristic seeds when it can, degrades to BEST_FOUND when it cannot).
DEFAULT_ORDER_BUDGET = 20_000

#: Heuristics used to seed the incumbent, tried in this order.
SEED_HEURISTICS = ("rcp", "mpo", "dts", "tree")

_SEED_FNS = {
    "rcp": rcp_order,
    "mpo": mpo_order,
    "dts": dts_order,
    "tree": tree_order,
}

#: Cap on the downset memo of the memory objective; beyond it new
#: states are explored unmemoised (correct, just slower).
_MEMO_CAP = 1 << 20

#: Float slop of the time objective: lower-bound pruning may discard
#: improvements smaller than this, so ``PROVED_OPTIMAL`` makespans are
#: optimal up to ``TIME_EPS`` (b-levels and starts accumulate the same
#: sums in different association orders).  The memory objective is
#: integral and unaffected.
TIME_EPS = 1e-9


@dataclass(frozen=True)
class ExactResult:
    """Outcome of one branch-and-bound run.

    ``value`` is the makespan (``objective="time"``) or the MIN_MEM peak
    (``objective="memory"``) of ``schedule``.  ``status`` is
    ``PROVED_OPTIMAL`` only when the search space was exhausted within
    the node budget; otherwise ``BEST_FOUND`` with ``lower_bound`` the
    certified root bound (``lower_bound == value`` when proved).
    ``schedule`` is ``None`` only when a capacity made the instance
    infeasible (no feasible schedule found; provably none exists iff
    ``status == PROVED_OPTIMAL``).
    """

    objective: str
    status: str
    value: float
    lower_bound: float
    nodes: int
    node_budget: int
    capacity: Optional[int]
    incumbent_source: str
    schedule: Optional[Schedule]

    @property
    def proved(self) -> bool:
        return self.status == PROVED_OPTIMAL


class _Search:
    """Mutable branch-and-bound state over one instance."""

    def __init__(
        self,
        graph: TaskGraph,
        placement: Placement,
        assignment: Mapping[str, int],
        comm: CommModel,
        objective: str,
        capacity: Optional[int],
    ):
        gi = graph_index(graph)
        mi = gi.mapping(placement, assignment)
        names = gi.names
        n = len(names)
        self.names = names
        self.n = n
        self.nprocs = placement.num_procs
        self.objective = objective
        self.capacity = capacity
        self.track_mem = capacity is not None or objective == "memory"

        proc = self.proc = mi.proc
        self.w = gi.weight
        # Predecessor ids with the cost of the edge's data (``-1``
        # bytes: a synchronisation edge), charged across processors.
        self.preds: list[list[tuple[int, float]]] = [
            [(u, 0.0 if proc[u] == proc[i]
              else comm.cost(nb) if nb >= 0 else comm.latency)
             for u, nb in row]
            for i, row in enumerate(gi.pred)
        ]
        # The canonical-interleaving filter is sound iff start times
        # strictly increase along every cross-processor edge (same-proc
        # ties are resolved by per-processor append order): it needs
        # ``w(u) + comm > 0`` on each such edge.
        self.canonical = all(
            self.w[u] + c > 0
            for i in range(n)
            for (u, c) in self.preds[i]
            if proc[u] != proc[i]
        )
        self.succs = [[s for s, _nb in row] for row in gi.succ]
        self.blevel = mapping_b_levels(graph, mi, comm)

        self.perm = mi.perm_bytes
        size = gi.oid_size
        # Each task's volatile (object id, size) pairs.
        self.vol: list[list[tuple[int, int]]] = [
            [(o, size[o]) for o in row] for row in mi.vola_oids]
        self.remcnt: list[dict[int, int]] = [dict() for _ in range(self.nprocs)]
        for p, row in zip(proc, mi.vola_oids):
            cnt = self.remcnt[p]
            for o in row:
                cnt[o] = cnt.get(o, 0) + 1
        #: Def 5 floor per task: its own volatile objects are alive
        #: while it runs, whatever the ordering.
        self.hold = [
            self.perm[proc[i]] + sum(sz for _o, sz in self.vol[i])
            for i in range(n)
        ]

        # Mutable search state.
        self.indeg = [len(self.preds[i]) for i in range(n)]
        self.ready = {i for i in range(n) if self.indeg[i] == 0}
        self.finish = [0.0] * n
        self.idle = [0.0] * self.nprocs
        self.orders: list[list[int]] = [[] for _ in range(self.nprocs)]
        self.remwork = [0.0] * self.nprocs
        for i in range(n):
            self.remwork[self.proc[i]] += self.w[i]
        self.alive: list[set[int]] = [set() for _ in range(self.nprocs)]
        self.live = [0] * self.nprocs
        self.base_peak = max(self.perm) if self.perm else 0
        self.cur_peak = self.base_peak
        self.scheduled = 0
        self.mask = 0
        self.last_key: tuple[float, int] = (float("-inf"), -1)
        self.nodes = 0
        self.memo: dict[int, int] = {}

    # -- moves ---------------------------------------------------------

    def est(self, i: int) -> float:
        s = self.idle[self.proc[i]]
        for (u, c) in self.preds[i]:
            a = self.finish[u] + c
            if a > s:
                s = a
        return s

    def added_bytes(self, i: int) -> int:
        p = self.proc[i]
        alive = self.alive[p]
        return sum(sz for o, sz in self.vol[i] if o not in alive)

    def apply(self, i: int, start: float) -> tuple:
        """Append task ``i`` at ``start``; returns the undo record."""
        p = self.proc[i]
        undo_mem: Optional[tuple] = None
        if self.track_mem:
            newly = []
            freed = []
            alive = self.alive[p]
            remcnt = self.remcnt[p]
            for o, sz in self.vol[i]:
                if o not in alive:
                    alive.add(o)
                    self.live[p] += sz
                    newly.append((o, sz))
            mem_at = self.perm[p] + self.live[p]
            for o, sz in self.vol[i]:
                remcnt[o] -= 1
                if remcnt[o] == 0:
                    alive.remove(o)
                    self.live[p] -= sz
                    freed.append((o, sz))
            undo_mem = (newly, freed, self.cur_peak)
            if mem_at > self.cur_peak:
                self.cur_peak = mem_at
        old_idle = self.idle[p]
        self.finish[i] = start + self.w[i]
        self.idle[p] = self.finish[i]
        self.orders[p].append(i)
        self.remwork[p] -= self.w[i]
        self.ready.discard(i)
        woken = []
        for s in self.succs[i]:
            self.indeg[s] -= 1
            if self.indeg[s] == 0:
                self.ready.add(s)
                woken.append(s)
        old_key = self.last_key
        self.last_key = (start, p)
        self.scheduled += 1
        self.mask |= 1 << i
        self.nodes += 1
        return (i, p, old_idle, woken, old_key, undo_mem)

    def undo(self, rec: tuple) -> None:
        i, p, old_idle, woken, old_key, undo_mem = rec
        self.mask &= ~(1 << i)
        self.scheduled -= 1
        self.last_key = old_key
        for s in woken:
            self.ready.discard(s)
            self.indeg[s] += 1
        for s in self.succs[i]:
            if s not in woken:
                self.indeg[s] += 1
        self.ready.add(i)
        self.remwork[p] += self.w[i]
        self.orders[p].pop()
        self.idle[p] = old_idle
        self.finish[i] = 0.0
        if undo_mem is not None:
            newly, freed, old_peak = undo_mem
            alive = self.alive[p]
            remcnt = self.remcnt[p]
            for o, sz in freed:
                alive.add(o)
                self.live[p] += sz
            for o, sz in self.vol[i]:
                remcnt[o] += 1
            for o, sz in newly:
                alive.remove(o)
                self.live[p] -= sz
            self.cur_peak = old_peak

    # -- bounds and branching ------------------------------------------

    def mem_feasible(self, i: int) -> bool:
        """Would appending ``i`` keep MEM_REQ within the capacity?"""
        if self.capacity is None:
            return True
        p = self.proc[i]
        return self.perm[p] + self.live[p] + self.added_bytes(i) <= self.capacity

    def time_lb(self, ests: dict[int, float]) -> float:
        lb = 0.0
        for p in range(self.nprocs):
            v = self.idle[p] + self.remwork[p]
            if v > lb:
                lb = v
        for i, s in ests.items():
            v = s + self.blevel[i]
            if v > lb:
                lb = v
        return lb

    def candidates_time(self) -> tuple[float, list[tuple[float, int]]]:
        """(lower bound, canonical candidate moves sorted best-first)."""
        ests = {i: self.est(i) for i in self.ready}
        lb = self.time_lb(ests)
        cands = []
        for i, s in ests.items():
            if self.canonical and (s, self.proc[i]) < self.last_key:
                continue
            if not self.mem_feasible(i):
                continue
            cands.append((s, i))
        cands.sort(key=lambda si: (si[0], -self.blevel[si[1]], si[1]))
        return lb, cands

    def candidates_mem(self) -> tuple[float, list[tuple[float, int]]]:
        lb = float(self.cur_peak)
        cands = []
        for i in self.ready:
            if not self.mem_feasible(i):
                continue
            cands.append((float(self.added_bytes(i)), i))
        cands.sort()
        return lb, cands

    def root_lower_bound(self) -> float:
        if self.objective == "time":
            lb, _ = self.candidates_time()
            return lb
        lb = float(self.base_peak)
        for i in range(self.n):
            if self.hold[i] > lb:
                lb = float(self.hold[i])
        return lb


def _evaluate(schedule: Schedule, objective: str, comm: CommModel) -> float:
    if objective == "time":
        return gantt(schedule, comm).makespan
    return float(analyze_memory(schedule).min_mem)


def _seed_incumbent(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    comm: CommModel,
    objective: str,
    capacity: Optional[int],
) -> tuple[float, Optional[Schedule], str]:
    best_val = float("inf")
    best_sched: Optional[Schedule] = None
    best_src = "none"
    for name in SEED_HEURISTICS:
        try:
            sched = _SEED_FNS[name](graph, placement, assignment, comm)
        except SchedulingError:
            continue
        if capacity is not None and analyze_memory(sched).min_mem > capacity:
            continue
        val = _evaluate(sched, objective, comm)
        if val < best_val:
            best_val, best_sched, best_src = val, sched, name
    return best_val, best_sched, best_src


def solve(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    comm: CommModel = UNIT_COMM,
    *,
    objective: str = "time",
    capacity: Optional[int] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ExactResult:
    """Branch-and-bound over all schedules of a fixed assignment.

    ``objective="time"`` minimises the macro-dataflow makespan,
    ``objective="memory"`` minimises MIN_MEM (Def 6).  ``capacity``
    restricts the search to schedules executable under that
    per-processor capacity (Def 5); when no such schedule exists the
    result carries ``schedule=None``.  ``node_budget`` caps the number
    of branch-and-bound nodes; exhausting it degrades ``status`` to
    ``BEST_FOUND`` (never a wrong ``PROVED_OPTIMAL`` claim).
    """
    if objective not in ("time", "memory"):
        raise ValueError(
            f"unknown objective {objective!r}; use 'time' or 'memory'"
        )
    if not graph.frozen:
        graph.freeze()
    search = _Search(graph, placement, assignment, comm, objective, capacity)
    best_val, best_sched, best_src = _seed_incumbent(
        graph, placement, assignment, comm, objective, capacity
    )
    best_orders: Optional[list[list[int]]] = None
    root_lb = search.root_lower_bound()

    def result(status: str, lower: float) -> ExactResult:
        sched = best_sched
        if best_orders is not None:
            sched = Schedule(
                graph=graph,
                placement=placement,
                assignment=dict(assignment),
                orders=[[search.names[i] for i in o] for o in best_orders],
                meta={"heuristic": "EXACT"},
            )
            sched.validate()
        return ExactResult(
            objective=objective,
            status=status,
            value=best_val,
            lower_bound=lower,
            nodes=search.nodes,
            node_budget=node_budget,
            capacity=capacity,
            incumbent_source=best_src if best_orders is None else "bnb",
            schedule=sched,
        )

    # A seed meeting the certified root bound is already optimal.
    if best_sched is not None and best_val <= root_lb + TIME_EPS:
        return result(PROVED_OPTIMAL, best_val)

    branch = (
        search.candidates_time
        if objective == "time"
        else search.candidates_mem
    )
    exhausted = False
    _lb0, cands0 = branch()
    stack: list[list] = [[cands0, 0, None]]
    while stack:
        frame = stack[-1]
        if frame[2] is not None:
            search.undo(frame[2])
            frame[2] = None
        cands, i = frame[0], frame[1]
        if i >= len(cands):
            stack.pop()
            continue
        if search.nodes >= node_budget:
            exhausted = True
            break
        frame[1] = i + 1
        start, task = cands[i]
        if objective == "memory":
            start = search.est(task)
        rec = search.apply(task, start)
        if search.scheduled == search.n:
            val = (
                max(search.idle)
                if objective == "time"
                else float(search.cur_peak)
            )
            if val < best_val:
                best_val = val
                best_orders = [list(o) for o in search.orders]
            search.undo(rec)
            continue
        lb, sub = branch()
        if lb >= best_val - TIME_EPS:
            search.undo(rec)
            continue
        if objective == "memory":
            seen = search.memo.get(search.mask)
            if seen is not None and seen <= search.cur_peak:
                search.undo(rec)
                continue
            if len(search.memo) < _MEMO_CAP:
                search.memo[search.mask] = search.cur_peak
        frame[2] = rec
        stack.append([sub, 0, None])

    status = BEST_FOUND if exhausted else PROVED_OPTIMAL
    lower = best_val if status == PROVED_OPTIMAL else min(root_lb, best_val)
    if best_sched is None and best_orders is None:
        # Capacity-infeasible: no heuristic seed fits and the search
        # found nothing (provably nothing exists iff the space was
        # exhausted).
        return ExactResult(
            objective=objective,
            status=status,
            value=float("inf"),
            lower_bound=lower if status == BEST_FOUND else float("inf"),
            nodes=search.nodes,
            node_budget=node_budget,
            capacity=capacity,
            incumbent_source="none",
            schedule=None,
        )
    return result(status, lower)


def solve_over_placements(
    graph: TaskGraph,
    cases: Iterable[tuple[Placement, Mapping[str, int]]],
    comm: CommModel = UNIT_COMM,
    *,
    objective: str = "time",
    capacity: Optional[int] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ExactResult:
    """Exact search over (ordering, placement): solve every candidate
    placement/assignment pair and return the best result.

    The result is ``PROVED_OPTIMAL`` (over the supplied candidates) only
    when every per-placement search proved its own optimum.
    """
    best: Optional[ExactResult] = None
    all_proved = True
    for placement, assignment in cases:
        res = solve(
            graph,
            placement,
            assignment,
            comm,
            objective=objective,
            capacity=capacity,
            node_budget=node_budget,
        )
        all_proved = all_proved and res.proved
        if best is None or res.value < best.value:
            best = res
    if best is None:
        raise ValueError("solve_over_placements needs at least one case")
    if not all_proved and best.proved:
        best = ExactResult(
            objective=best.objective,
            status=BEST_FOUND,
            value=best.value,
            lower_bound=best.lower_bound,
            nodes=best.nodes,
            node_budget=best.node_budget,
            capacity=best.capacity,
            incumbent_source=best.incumbent_source,
            schedule=best.schedule,
        )
    return best


def exact_order(
    graph: TaskGraph,
    placement: Placement,
    assignment: Mapping[str, int],
    comm: CommModel = UNIT_COMM,
    capacity: Optional[int] = None,
    objective: str = "time",
    node_budget: int = DEFAULT_ORDER_BUDGET,
) -> Schedule:
    """The exact solver as a first-class ordering heuristic.

    Returns the best schedule the budgeted branch-and-bound can certify
    or find (never worse than the heuristic seeds); the search outcome
    is recorded in the schedule's ``meta`` (``exact_status``,
    ``exact_nodes``, ``exact_lower_bound``).
    """
    res = solve(
        graph,
        placement,
        assignment,
        comm,
        objective=objective,
        capacity=capacity,
        node_budget=node_budget,
    )
    if res.schedule is None:
        detail = (
            "provably no schedule fits"
            if res.proved
            else "no schedule found within the node budget"
        )
        raise SchedulingError(f"exact: {detail} under capacity {capacity}")
    m = {
        "heuristic": "EXACT",
        "exact_objective": res.objective,
        "exact_status": res.status,
        "exact_nodes": res.nodes,
        "exact_lower_bound": res.lower_bound,
        "exact_source": res.incumbent_source,
    }
    sched = Schedule(
        graph=graph,
        placement=placement,
        assignment=dict(res.schedule.assignment),
        orders=[list(o) for o in res.schedule.orders],
        meta=m,
    )
    sched.validate()
    return sched

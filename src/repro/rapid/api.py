"""The RAPID-style user API.

RAPID's programming model (section 2): the user specifies irregular
data objects and the tasks that access them; the system extracts the
dependence graph from the access patterns, schedules it, and executes it
on a distributed-memory machine.  This module packages the whole
pipeline behind two classes:

>>> r = Rapid()
>>> r.object("x", size=8)
>>> r.object("y", size=8)
>>> r.task("produce", writes=["x"], weight=1.0)
>>> r.task("consume", reads=["x"], writes=["y"], weight=2.0)
>>> prog = r.parallelize(num_procs=2, heuristic="mpo")
>>> result = prog.run(capacity=prog.min_mem)

The returned :class:`ParallelProgram` compiles the schedule once, with
its memory profile, and exposes timed simulation (`run`), numeric
execution (`run_numeric`) and the static predictions
(`predicted_time`, `min_mem`, `tot`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.liveness import MemoryProfile
from ..core.maps import MapPlan
from ..core.placement import Placement
from ..core.schedule import Schedule, gantt
from ..graph.builder import GraphBuilder
from ..graph.tasks import Kernel
from ..graph.taskgraph import TaskGraph
from ..machine.simulator import CompiledSchedule, SimResult, Simulator
from ..machine.spec import CRAY_T3D, MachineSpec
from .executor import execute_schedule
from .inspector import parallelize


@dataclass
class ParallelProgram:
    """A scheduled program ready for (simulated) execution.

    The schedule is compiled once, when the program is made; its
    profile, MAP plans and every run read that one
    :class:`~repro.machine.simulator.CompiledSchedule`."""

    schedule: Schedule
    spec: MachineSpec
    _compiled: CompiledSchedule = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._compiled = CompiledSchedule(self.schedule)

    @property
    def profile(self) -> MemoryProfile:
        """The schedule's liveness profile."""
        return self._compiled.profile

    # -- static predictions --------------------------------------------

    @property
    def min_mem(self) -> int:
        """Definition 5's MIN_MEM: smallest executable capacity."""
        return self.profile.min_mem

    @property
    def tot(self) -> int:
        """Memory needed with no recycling (the 100% reference)."""
        return self.profile.tot

    def predicted_time(self) -> float:
        """Macro-dataflow makespan prediction (no overheads)."""
        return gantt(self.schedule, self.spec.comm_model()).makespan

    def plan(self, capacity: int) -> MapPlan:
        """Static MAP plan under a capacity (section 3.3), memoised."""
        return self._compiled.plan_for(capacity)

    def compiled(self) -> CompiledSchedule:
        """This program's compiled schedule (one per program)."""
        return self._compiled

    # -- execution -------------------------------------------------------

    def run(
        self,
        capacity: Optional[int] = None,
        memory_managed: bool = True,
        spec: Optional[MachineSpec] = None,
    ) -> SimResult:
        """Execute on the simulated machine (active memory management)."""
        return Simulator(
            spec=spec or self.spec,
            capacity=capacity,
            memory_managed=memory_managed,
            compiled=self._compiled,
        ).run()

    def run_numeric(self, store: dict) -> dict:
        """Execute the task kernels in this schedule's interleaving."""
        return execute_schedule(self.schedule, store)

    def run_pipelined(
        self,
        iterations: int,
        capacity: Optional[int] = None,
        spec: Optional[MachineSpec] = None,
    ) -> SimResult:
        """Unroll the program ``iterations`` times (same objects, chained
        versions) and simulate the unrolled schedule in one run —
        capturing cross-iteration pipelining, unlike
        :meth:`run_iterative`'s first+steady decomposition.  Liveness and
        MAPs are recomputed across iteration boundaries."""
        from ..graph.repeat import repeat_schedule

        sched = repeat_schedule(self.schedule, iterations)
        return Simulator(
            sched, spec=spec or self.spec, capacity=capacity
        ).run()

    def run_iterative(
        self,
        iterations: int,
        capacity: Optional[int] = None,
        spec: Optional[MachineSpec] = None,
    ) -> "IterativeResult":
        """Simulate an iterative application (RAPID's target workloads).

        The first iteration pays the full protocol (MAPs allocate and
        notify addresses); subsequent iterations reuse the notified
        addresses — MAPs still recycle space but no address packages
        travel and no send suspends.  Returns per-iteration and total
        times, showing how the management overhead amortizes.
        """
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        mspec = spec or self.spec
        first = Simulator(
            spec=mspec, capacity=capacity, compiled=self._compiled
        ).run()
        if iterations == 1:
            return IterativeResult(iterations, first, first, first.parallel_time)
        steady = Simulator(
            spec=mspec,
            capacity=capacity,
            compiled=self._compiled,
            preknown_addresses=True,
        ).run()
        total = first.parallel_time + (iterations - 1) * steady.parallel_time
        return IterativeResult(iterations, first, steady, total)


@dataclass
class IterativeResult:
    """Timing of an iterative execution (first + steady-state)."""

    iterations: int
    first: SimResult
    steady: SimResult
    total_time: float

    @property
    def amortized_time(self) -> float:
        """Average time per iteration."""
        return self.total_time / self.iterations

    @property
    def first_iteration_overhead(self) -> float:
        """Extra time of the address-notification iteration relative to
        the steady state."""
        return self.first.parallel_time - self.steady.parallel_time


class Rapid:
    """Run-time parallelization session (the Figure 1 pipeline).

    Register objects and tasks in sequential program order, then call
    :meth:`parallelize`.
    """

    def __init__(
        self,
        spec: MachineSpec = CRAY_T3D,
        materialize_inputs: bool = True,
        dependence_mode: str = "transform",
    ):
        self.spec = spec
        self._builder = GraphBuilder(
            materialize_inputs=materialize_inputs,
            dependence_mode=dependence_mode,
        )
        self._graph: Optional[TaskGraph] = None

    # -- program specification -------------------------------------------

    def object(self, name: str, size: int = 1) -> None:
        """Declare an irregular data object."""
        self._builder.add_object(name, size)

    def task(
        self,
        name: str,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
        weight: float = 1.0,
        commute: Optional[str] = None,
        kernel: Optional[Kernel] = None,
    ) -> None:
        """Append a task to the sequential trace."""
        self._builder.add_task(
            name,
            reads=tuple(reads),
            writes=tuple(writes),
            weight=weight,
            commute=commute,
            kernel=kernel,
        )

    @property
    def graph(self) -> TaskGraph:
        """The transformed task graph (built on first access)."""
        if self._graph is None:
            self._graph = self._builder.build()
        return self._graph

    # -- pipeline ---------------------------------------------------------

    def parallelize(
        self,
        num_procs: int,
        heuristic: str = "mpo",
        placement: Optional[Placement] = None,
        capacity: Optional[int] = None,
        clustering: str = "owner-compute",
    ) -> ParallelProgram:
        """Inspector stage: derive, cluster, map and order the graph."""
        schedule = parallelize(
            self.graph,
            num_procs,
            heuristic=heuristic,
            placement=placement,
            comm=self.spec.comm_model(),
            capacity=capacity,
            clustering=clustering,
        )
        return ParallelProgram(schedule=schedule, spec=self.spec)

"""Tasks of the irregular computation model.

A task is a sequential unit of computation that reads a set of data
objects and writes a set of data objects (section 2 of the paper).  The
paper's notation ``T[i, j]`` denotes a task that reads ``d_i`` and
updates ``d_j``; ``T[j]`` denotes a task that updates ``d_j`` only.

Tasks may carry:

* a *weight* — predicted execution time (derived from flop counts by the
  sparse substrates, one unit in the worked examples);
* a *commuting group* tag — RAPID's extension for commutative
  operations: tasks in the same group read-modify-write the same object
  and may be executed in any relative order (e.g. the ``GEMM`` updates
  accumulating into one block of a sparse Cholesky factor);
* an optional *kernel* — a Python callable executed by the serial
  numeric executor to verify that schedules preserve program semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import GraphValueError


#: Signature of a numeric kernel: ``kernel(store)`` where ``store`` maps
#: object names to mutable payloads (NumPy arrays for the sparse codes).
Kernel = Callable[[dict], None]


@dataclass(frozen=True)
class Task:
    """A node of the task dependence graph.

    Parameters
    ----------
    name:
        Unique identifier within a graph.
    reads:
        Names of the objects the task reads (its *use* set).
    writes:
        Names of the objects the task writes (its *mod* set).  Objects in
        both sets are read-modify-written, the common case in sparse
        factorizations.
    weight:
        Predicted execution time in seconds (or abstract units).
    commute:
        Optional commuting-group key.  Tasks sharing a key are mutually
        commutative: the builder omits dependence edges among them and
        ordering heuristics may serialize them in any order.
    kernel:
        Optional callable executed by the numeric executor.
    """

    name: str
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    weight: float = 1.0
    commute: Optional[str] = None
    kernel: Optional[Kernel] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("task name must be non-empty")
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise GraphValueError(
                f"task {self.name!r}", "weight", self.weight,
                "finite and non-negative",
            )
        # Normalise to tuples so Task stays hashable even when callers
        # pass lists.
        if not isinstance(self.reads, tuple):
            object.__setattr__(self, "reads", tuple(self.reads))
        if not isinstance(self.writes, tuple):
            object.__setattr__(self, "writes", tuple(self.writes))
        seen: set[str] = set()
        for o in self.reads:
            if o in seen:
                raise ValueError(f"task {self.name!r} lists object {o!r} twice in reads")
            seen.add(o)
        seen.clear()
        for o in self.writes:
            if o in seen:
                raise ValueError(f"task {self.name!r} lists object {o!r} twice in writes")
            seen.add(o)

    # -- derived access sets -------------------------------------------------

    @property
    def accesses(self) -> tuple[str, ...]:
        """All distinct objects the task touches (reads first)."""
        return self.reads + tuple(o for o in self.writes if o not in self.reads)

    @property
    def read_only(self) -> tuple[str, ...]:
        """Objects read but not written."""
        return tuple(o for o in self.reads if o not in self.writes)

    @property
    def write_only(self) -> tuple[str, ...]:
        """Objects written but not read."""
        return tuple(o for o in self.writes if o not in self.reads)

    def touches(self, obj: str) -> bool:
        return obj in self.reads or obj in self.writes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        r = ",".join(self.reads)
        w = ",".join(self.writes)
        return f"Task({self.name!r}, reads=[{r}], writes=[{w}], w={self.weight:g})"

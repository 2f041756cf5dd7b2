"""Block sparse triangular solves (forward and backward substitution).

The paper credits RAPID with "good performance for sparse code such as
Cholesky factorization and triangular solvers" (section 2).  This module
builds the task graphs of the two substitution phases that turn the 2-D
block Cholesky factor into a full linear solver:

* **forward** — solve ``L y = b``:  ``SOLVE(k)`` computes
  ``y_k = L_kk^{-1} y_k`` and ``XUPD(i,k)`` applies ``y_i -= L_ik y_k``
  for every nonzero subdiagonal block; updates into one segment are
  additive, hence *commuting*;
* **backward** — solve ``L^T x = y``:  block columns run in reverse,
  ``XUPD(k,i)`` applies ``x_k -= L_ik^T x_i``.

Vector segments ``y[k]`` are owned by the owner of the diagonal block
``A[k,k]``; factor blocks are materialised on their owners by implicit
source tasks (they are resident after factorization), so the solve
graphs exhibit genuine volatile traffic: a segment owner must fetch
remote ``L_ik`` blocks — the irregular, low-computation-density pattern
that makes triangular solves communication-sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.placement import Placement, owner_compute_assignment
from ..graph.builder import GraphBuilder
from ..graph.taskgraph import TaskGraph
from .cholesky import CholeskyProblem, block_name

BYTES_PER_ENTRY = 8


def seg_name(k: int) -> str:
    return f"y[{k}]"


@dataclass
class TrisolveProblem:
    """A block triangular-solve instance tied to a Cholesky factor."""

    chol: CholeskyProblem
    lower: bool  # True: solve L y = b, False: solve L^T x = y
    graph: TaskGraph

    @property
    def num_blocks(self) -> int:
        return self.chol.num_block_cols

    def placement(self, p: int) -> Placement:
        """Factor blocks keep the 2-D block-cyclic owners; segment ``k``
        lives with diagonal block ``(k, k)``."""
        base = self.chol.placement(p)
        owner = dict(base.owner)
        pr, pc = self.chol.processor_grid(p)
        for k in range(self.num_blocks):
            owner[seg_name(k)] = (k % pr) * pc + (k % pc)
        # Restrict to objects present in this graph.
        owner = {o: q for o, q in owner.items() if self.graph.has_object(o)}
        return Placement(p, owner)

    def assignment(self, placement: Placement) -> dict[str, int]:
        return owner_compute_assignment(self.graph, placement)

    # -- numerics -----------------------------------------------------

    def initial_store(self, factor_store: dict, b: np.ndarray) -> dict:
        """Store holding the factor blocks plus the right-hand side
        split into segments."""
        store = dict(factor_store)
        for k in range(self.num_blocks):
            r0, r1 = self.chol.part.bounds(k)
            store[seg_name(k)] = np.array(b[r0:r1], dtype=float)
        return store

    def gather(self, store: dict) -> np.ndarray:
        out = np.empty(self.chol.n)
        for k in range(self.num_blocks):
            r0, r1 = self.chol.part.bounds(k)
            out[r0:r1] = store[seg_name(k)]
        return out


def _solve_kernel(diag: str, seg: str, lower: bool):
    def kernel(store: dict) -> None:
        import scipy.linalg as sla

        l = store[diag]
        store[seg] = sla.solve_triangular(l, store[seg], lower=True, trans=0 if lower else 1)

    return kernel


def _upd_kernel(blk: str, src_seg: str, dst_seg: str, lower: bool):
    def kernel(store: dict) -> None:
        l = store[blk]
        if lower:
            store[dst_seg] -= l @ store[src_seg]
        else:
            store[dst_seg] -= l.T @ store[src_seg]

    return kernel


def build_trisolve(chol: CholeskyProblem, lower: bool = True, flop_time: float = 1.0,
                   with_kernels: bool = True) -> TrisolveProblem:
    """Build the forward (``lower=True``) or backward substitution graph
    for a factored :class:`~repro.sparse.cholesky.CholeskyProblem`."""
    part = chol.part
    nblocks = part.num_blocks
    sub = {k: [] for k in range(nblocks)}  # k -> nonzero block rows i > k
    for (i, j) in chol.nonzero_blocks:
        if i > j:
            sub[j].append(i)
    for lst in sub.values():
        lst.sort()

    b = GraphBuilder(materialize_inputs=True, dependence_mode="transform")
    used_blocks = {(k, k) for k in range(nblocks)}
    for k in range(nblocks):
        used_blocks.update((i, k) for i in sub[k])
    for (i, j) in sorted(used_blocks):
        b.add_object(block_name(i, j), chol.nonzero_blocks[(i, j)] * BYTES_PER_ENTRY)
    for k in range(nblocks):
        b.add_object(seg_name(k), part.width(k) * BYTES_PER_ENTRY)

    wk = part.width
    if lower:
        # Forward: y_k finalized in ascending k; updates push downward.
        for k in range(nblocks):
            b.add_task(
                f"SOLVE({k})",
                reads=(block_name(k, k), seg_name(k)),
                writes=(seg_name(k),),
                weight=wk(k) ** 2 * flop_time,
                kernel=_solve_kernel(block_name(k, k), seg_name(k), True)
                if with_kernels else None,
            )
            for i in sub[k]:
                b.add_task(
                    f"XUPD({i},{k})",
                    reads=(block_name(i, k), seg_name(k), seg_name(i)),
                    writes=(seg_name(i),),
                    weight=2.0 * wk(i) * wk(k) * flop_time,
                    commute=f"acc:y{i}",
                    kernel=_upd_kernel(block_name(i, k), seg_name(k), seg_name(i), True)
                    if with_kernels else None,
                )
    else:
        # Backward: x_k finalized in descending k; updates pull upward.
        for k in reversed(range(nblocks)):
            for i in reversed(sub[k]):
                b.add_task(
                    f"XUPD({k},{i})",
                    reads=(block_name(i, k), seg_name(i), seg_name(k)),
                    writes=(seg_name(k),),
                    weight=2.0 * wk(i) * wk(k) * flop_time,
                    commute=f"acc:x{k}",
                    kernel=_upd_kernel(block_name(i, k), seg_name(i), seg_name(k), False)
                    if with_kernels else None,
                )
            b.add_task(
                f"SOLVE({k})",
                reads=(block_name(k, k), seg_name(k)),
                writes=(seg_name(k),),
                weight=wk(k) ** 2 * flop_time,
                kernel=_solve_kernel(block_name(k, k), seg_name(k), False)
                if with_kernels else None,
            )
    return TrisolveProblem(chol=chol, lower=lower, graph=b.build())

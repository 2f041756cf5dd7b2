"""Column-level elimination-tree task graphs (the tree workloads).

The block Cholesky graphs of :mod:`repro.sparse.cholesky` are DAGs; the
*column-level* view of the same factorization is a forest — the
elimination tree (:mod:`repro.sparse.etree`).  This module builds that
forest as a first-class workload: one task per column ``j`` (weight
``nnz(col j)**2`` flops — the dense-column update cost), one object per
column vector (``nnz(col j)`` stored entries), task ``C{j}`` reading its
etree children's columns and writing its own.  The ``tree`` heuristic
(:func:`~repro.core.treesched.tree_order`, program order on each
processor) and the generic heuristics are measured on it, by
``repro validate`` and the optimality-gap scorecard.

The matrix is minimum-degree ordered by default: the natural ordering
of the ``bcsstk``-style band matrices degenerates the etree into a path
(no tree parallelism at all), while ``md`` yields the bushy forests the
tree results are about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..core.placement import Placement, owner_compute_assignment
from ..graph.builder import GraphBuilder
from ..graph.taskgraph import TaskGraph
from .etree import elimination_tree
from .ordering import order_matrix

BYTES_PER_ENTRY = 8


def column_name(j: int) -> str:
    return f"x{j}"


def task_name(j: int) -> str:
    return f"C{j}"


@dataclass
class EtreeProblem:
    """A column-level elimination-tree instance.

    Exposes the workload interface of
    :meth:`repro.experiments.common.ExperimentContext.register`:
    ``graph``, ``placement(p)`` and ``assignment(placement)``.
    Picklable (plain data), so it can ship to parallel sweep workers.
    """

    parent: np.ndarray
    graph: TaskGraph

    @property
    def n(self) -> int:
        return len(self.parent)

    def placement(self, p: int) -> Placement:
        """Cyclic ownership of the column vectors."""
        owner = {column_name(j): j % p for j in range(self.n)}
        return Placement(p, owner)

    def assignment(self, placement: Placement) -> dict[str, int]:
        return owner_compute_assignment(self.graph, placement)


def build_etree_problem(
    a: sp.spmatrix,
    ordering: str = "md",
    flop_time: float = 1.0,
) -> EtreeProblem:
    """Elimination-tree workload of (the ordered) ``a``.

    ``ordering`` is applied first (see
    :func:`repro.sparse.ordering.order_matrix`); the etree of the
    permuted pattern defines the task forest.
    """
    a2, _perm = order_matrix(a, ordering)
    parent = elimination_tree(a2)
    n = len(parent)
    s = sp.csr_matrix(a2)
    s = sp.csc_matrix((s + s.T).astype(bool))
    # Lower-triangular column counts (diagonal included) of the
    # symmetrised pattern: the stored length of column j's vector.
    colnnz = np.empty(n, dtype=np.int64)
    for j in range(n):
        rows = s.indices[s.indptr[j]:s.indptr[j + 1]]
        colnnz[j] = int(np.count_nonzero(rows >= j))
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if parent[v] != -1:
            children[parent[v]].append(v)

    b = GraphBuilder(materialize_inputs=False)
    for j in range(n):
        b.add_object(column_name(j), int(colnnz[j]) * BYTES_PER_ENTRY)
    # parent[j] > j in an elimination tree, so the natural column order
    # is already children-before-parents.
    for j in range(n):
        b.add_task(
            task_name(j),
            reads=tuple(column_name(c) for c in children[j]),
            writes=(column_name(j),),
            weight=float(colnnz[j]) ** 2 * flop_time,
        )
    return EtreeProblem(parent=parent, graph=b.build())

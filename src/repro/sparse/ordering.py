"""Fill-reducing orderings.

Sparse direct solvers permute the matrix symmetrically before
factorization to limit fill.  Two orderings are provided:

* :func:`minimum_degree` — a from-scratch implementation of the classic
  minimum-degree heuristic on the quotient-free elimination graph
  (exact degrees, no supervariables — adequate for the problem sizes of
  the reproduction);
* :func:`rcm` — reverse Cuthill-McKee via SciPy (bandwidth-reducing).

Both return a permutation ``perm`` such that ``A[perm][:, perm]`` is the
matrix to factorize.
"""

from __future__ import annotations

import heapq

import numpy as np
import scipy.sparse as sp


def _symmetric_pattern(a: sp.spmatrix) -> sp.csr_matrix:
    """Boolean symmetric pattern of ``a`` without the diagonal."""
    s = sp.csr_matrix(a, copy=True)
    s.data = np.ones_like(s.data)
    s = sp.csr_matrix((s + s.T) > 0, dtype=np.int8)
    s.setdiag(0)
    s.eliminate_zeros()
    return s


def minimum_degree(a: sp.spmatrix) -> np.ndarray:
    """Minimum-degree ordering of the symmetric pattern of ``a``.

    Classic elimination-graph algorithm: repeatedly eliminate a vertex
    of minimum degree and connect its neighbours into a clique.  Uses a
    lazy heap; complexity is fine for n up to a few thousand.
    """
    s = _symmetric_pattern(a)
    n = s.shape[0]
    adj: list[set[int]] = [set(s.indices[s.indptr[i] : s.indptr[i + 1]]) for i in range(n)]
    heap: list[tuple[int, int]] = [(len(adj[i]), i) for i in range(n)]
    heapq.heapify(heap)
    eliminated = np.zeros(n, dtype=bool)
    perm = np.empty(n, dtype=np.int64)
    k = 0
    while heap:
        deg, v = heapq.heappop(heap)
        if eliminated[v] or deg != len(adj[v]):
            continue  # stale entry
        eliminated[v] = True
        perm[k] = v
        k += 1
        nbrs = [u for u in adj[v] if not eliminated[u]]
        # Form the clique among v's neighbours.
        for u in nbrs:
            adj[u].discard(v)
        for i, u in enumerate(nbrs):
            au = adj[u]
            for w in nbrs[i + 1 :]:
                if w not in au:
                    au.add(w)
                    adj[w].add(u)
        for u in nbrs:
            heapq.heappush(heap, (len(adj[u]), u))
        adj[v] = set()
    assert k == n
    return perm


def rcm(a: sp.spmatrix) -> np.ndarray:
    """Reverse Cuthill-McKee ordering (SciPy)."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    s = _symmetric_pattern(a)
    return np.asarray(reverse_cuthill_mckee(s, symmetric_mode=True), dtype=np.int64)


def natural(a: sp.spmatrix) -> np.ndarray:
    """The identity ordering."""
    return np.arange(a.shape[0], dtype=np.int64)


ORDERINGS = {"md": minimum_degree, "rcm": rcm, "natural": natural}


def apply_ordering(a: sp.spmatrix, perm: np.ndarray) -> sp.csr_matrix:
    """Symmetric permutation ``A[perm][:, perm]``."""
    a = sp.csr_matrix(a)
    return sp.csr_matrix(a[perm][:, perm])


def order_matrix(a: sp.spmatrix, method: str = "md") -> tuple[sp.csr_matrix, np.ndarray]:
    """Order ``a`` with the named method; returns (permuted matrix, perm)."""
    try:
        fn = ORDERINGS[method]
    except KeyError:
        raise ValueError(f"unknown ordering {method!r}; use one of {sorted(ORDERINGS)}")
    perm = fn(a)
    return apply_ordering(a, perm), perm

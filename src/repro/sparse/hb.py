"""Harwell-Boeing file bridge.

The paper's experiments use Harwell-Boeing matrices (BCSSTK15/24/33,
``goodwin``).  The reproduction ships synthetic stand-ins (no network,
no redistribution rights), but a user who has the real ``.rsa``/``.rua``
files can load them here and run every experiment on the paper's actual
inputs.

Reading/writing delegates to :mod:`scipy.io` (Harwell-Boeing support);
this module adds symmetry expansion (HB symmetric files store one
triangle), validation, and a loader that dispatches to the matching
experiment workload builder.
"""

from __future__ import annotations

import pathlib

import numpy as np
import scipy.sparse as sp


def read_harwell_boeing(path: str | pathlib.Path) -> sp.csr_matrix:
    """Read an HB file; symmetric storage is expanded to a full matrix."""
    import scipy.io

    path = pathlib.Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no Harwell-Boeing file at {path}")
    m = scipy.io.hb_read(str(path))
    m = sp.csr_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{path.name}: matrix is not square: {m.shape}")
    lower = sp.tril(m, -1)
    upper = sp.triu(m, 1)
    if lower.nnz == 0 and upper.nnz > 0:
        m = m + upper.T  # stored upper triangle only
    elif upper.nnz == 0 and lower.nnz > 0:
        m = m + lower.T  # stored lower triangle only
    return sp.csr_matrix(m)


def write_harwell_boeing(path: str | pathlib.Path, a: sp.spmatrix) -> None:
    """Write a matrix in HB format (full storage)."""
    import scipy.io

    scipy.io.hb_write(str(path), sp.csc_matrix(a))


def is_structurally_symmetric(a: sp.spmatrix) -> bool:
    """True when the sparsity pattern equals its transpose's."""
    s = sp.csr_matrix(a, copy=True)
    s.data = np.ones_like(s.data)
    return (s != s.T).nnz == 0


def load_for_experiment(path: str | pathlib.Path, kind: str = "auto") -> sp.csr_matrix:
    """Load an HB matrix and validate it for one of the paper's
    experiment kinds: ``"cholesky"`` (must be symmetric; made SPD-safe by
    diagonal boosting if needed), ``"lu"`` (any square pattern with a
    present diagonal) or ``"auto"``.
    """
    a = read_harwell_boeing(path)
    symmetric = is_structurally_symmetric(a) and np.allclose(
        a.toarray(), a.T.toarray()
    )
    if kind == "auto":
        kind = "cholesky" if symmetric else "lu"
    if kind == "cholesky":
        if not symmetric:
            raise ValueError("cholesky experiments need a symmetric matrix")
        # Boost the diagonal if the matrix is not positive definite; the
        # task-graph structure (what the experiments measure) is
        # unchanged.
        d = a.toarray()
        w = np.linalg.eigvalsh(d)
        if w.min() <= 0:
            a = sp.csr_matrix(a + sp.eye(a.shape[0]) * (1e-3 - w.min()))
    elif kind == "lu":
        diag = a.diagonal()
        if np.any(diag == 0):
            a = sp.csr_matrix(a + sp.eye(a.shape[0]) * 1e-8)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return a

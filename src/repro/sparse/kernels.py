"""Dense numerical kernels for the block factorizations.

The task graphs of :mod:`repro.sparse.cholesky` and
:mod:`repro.sparse.lu` attach these kernels to tasks; the serial numeric
executor (:mod:`repro.rapid.executor`) runs them against a shared object
store to verify that every schedule the library produces preserves the
program's semantics (any dependence-respecting interleaving must give
the same factors).

Cholesky blocks are ``w x w`` NumPy arrays; LU panels are dicts
``{"A": (n x w) array, "piv": [(col, pivot_row), ...]}`` so the partial
pivoting choices travel with the factored panel (the 1-D column layout
keeps pivot search and row swaps local, as in section 5 of the paper).
"""

from __future__ import annotations

import numpy as np


# ----------------------------------------------------------------------
# Cholesky block kernels (right-looking, lower triangular)
# ----------------------------------------------------------------------


def potrf(a: np.ndarray) -> np.ndarray:
    """In-place-style Cholesky of a diagonal block: returns ``L`` with
    the strict upper triangle zeroed."""
    return np.linalg.cholesky(a)


def trsm_lower(l_kk: np.ndarray, a_ik: np.ndarray) -> np.ndarray:
    """Solve ``X @ L_kk^T = A_ik`` (scale a subdiagonal block)."""
    # X = A_ik @ L_kk^{-T}: solve L_kk @ X^T = A_ik^T.
    return np.linalg.solve(l_kk, a_ik.T).T


def gemm_update(a_ij: np.ndarray, l_ik: np.ndarray, l_jk: np.ndarray) -> None:
    """Schur update ``A_ij -= L_ik @ L_jk^T`` (also covers SYRK when
    ``i == j``).  In place."""
    a_ij -= l_ik @ l_jk.T


def potrf_flops(w: int) -> float:
    return w**3 / 3.0


def trsm_flops(w_k: int, w_i: int) -> float:
    return w_k**2 * w_i


def gemm_flops(w_i: int, w_j: int, w_k: int) -> float:
    return 2.0 * w_i * w_j * w_k


# ----------------------------------------------------------------------
# LU panel kernels (1-D column blocks, partial pivoting)
# ----------------------------------------------------------------------


def lu_factor_panel(panel: dict, col_start: int, col_end: int) -> None:
    """Factor the columns ``[col_start, col_end)`` of a panel in place.

    Performs the standard right-looking elimination with partial
    pivoting restricted to the panel: for each global column ``gc``, the
    pivot is searched in rows ``gc..n-1`` of the panel, the row swap is
    applied to the whole panel and recorded in ``panel["piv"]``, and the
    trailing panel columns receive the rank-1 update.
    """
    a = panel["A"]
    piv = panel["piv"]
    n = a.shape[0]
    for gc in range(col_start, col_end):
        c = gc - col_start
        r = int(np.argmax(np.abs(a[gc:, c]))) + gc
        if abs(a[r, c]) == 0.0:
            raise ZeroDivisionError(f"structurally singular at column {gc}")
        if r != gc:
            a[[gc, r], :] = a[[r, gc], :]
        piv.append((gc, r))
        if gc + 1 < n:
            a[gc + 1 :, c] /= a[gc, c]
            if c + 1 < a.shape[1]:
                a[gc + 1 :, c + 1 :] -= np.outer(a[gc + 1 :, c], a[gc, c + 1 :])


def lu_update_panel(src: dict, dst: dict, col_start: int, col_end: int) -> None:
    """Apply a factored panel's eliminations to a later panel in place —
    the Update(k, j) task of the 1-D column-block algorithm.

    LAPACK-style: apply the source panel's row interchanges to the
    destination (``laswp``), compute the U rows with a unit-lower
    triangular solve against the pivoted ``L_kk``, then apply the Schur
    update with the stored (already pivoted) multipliers ``L_2k``.
    This is the correct formulation when pivoting permutes rows *after*
    a column's elimination: the stored multipliers are in final (fully
    permuted) row order, so the destination must be brought to the same
    order before the update.
    """
    import scipy.linalg as sla

    a_src = src["A"]
    a_dst = dst["A"]
    for gc, r in src["piv"]:
        if r != gc:
            a_dst[[gc, r], :] = a_dst[[r, gc], :]
    l_kk = a_src[col_start:col_end, :]
    u_rows = sla.solve_triangular(
        l_kk, a_dst[col_start:col_end, :], lower=True, unit_diagonal=True
    )
    a_dst[col_start:col_end, :] = u_rows
    if col_end < a_dst.shape[0]:
        a_dst[col_end:, :] -= a_src[col_end:, :] @ u_rows


def lu_factor_flops(n_below: int, w: int) -> float:
    """Rough flop count of factoring a panel with ``n_below`` active rows."""
    return 2.0 * n_below * w * w


def lu_update_flops(n_below: int, w_src: int, w_dst: int) -> float:
    return 2.0 * n_below * w_src * w_dst

"""End-to-end sparse linear solvers built from the task-graph phases.

``cholesky_solve`` chains the three RAPID-scheduled phases —
factorization, forward substitution, backward substitution — entirely
through task kernels, so the whole solver path is exercised by the same
scheduling/execution machinery the paper evaluates.  ``lu_solve`` does
the same for the unsymmetric case using the factored panels directly
(the substitution there is performed from the assembled factors, since
the paper's LU evaluation covers factorization only).
"""

from __future__ import annotations

import numpy as np

from ..rapid.executor import execute_serial
from .cholesky import CholeskyProblem
from .lu import LUProblem
from .trisolve import build_trisolve


def cholesky_solve(
    prob: CholeskyProblem, b: np.ndarray, flop_time: float = 1.0
) -> np.ndarray:
    """Solve ``A x = b`` (A in the problem's permuted ordering) through
    the factorization + two substitution task graphs."""
    if b.shape != (prob.n,):
        raise ValueError(f"b must have shape ({prob.n},)")
    factor_store = prob.initial_store()
    execute_serial(prob.graph, factor_store)

    fwd = build_trisolve(prob, lower=True, flop_time=flop_time)
    store = fwd.initial_store(factor_store, b)
    execute_serial(fwd.graph, store)
    y = fwd.gather(store)

    bwd = build_trisolve(prob, lower=False, flop_time=flop_time)
    store = bwd.initial_store(factor_store, y)
    execute_serial(bwd.graph, store)
    return bwd.gather(store)


def lu_solve(prob: LUProblem, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` via the 1-D column-block LU task graph."""
    import scipy.linalg as sla

    if b.shape != (prob.n,):
        raise ValueError(f"b must have shape ({prob.n},)")
    store = prob.initial_store()
    execute_serial(prob.graph, store)
    p, l, u = prob.assemble(store)
    y = sla.solve_triangular(l, p @ b, lower=True, unit_diagonal=True)
    return sla.solve_triangular(u, y, lower=False)

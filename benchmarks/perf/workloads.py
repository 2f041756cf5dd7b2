"""The four benchmark workloads, their seeded inputs and output checks.

Every workload is a :func:`repro.experiments.sweep.full_sweep` over a
fixed grid (why each grid was chosen: ``README.md``).  A serial sweep
runs its groups — one per (workload, P) — in order, so the benchmark
runs one ``full_sweep`` call per group on one context (:func:`groups`)
and times each; the records, concatenated, are the whole sweep's.  The
benchmark seed ``N`` is added to each matrix generator's built-in seed
(15, 24 and 7); the problems are built here and handed to the program
through :meth:`ExperimentContext.register` under their usual keys, so
seed 0 reproduces ``repro sweep`` exactly.

Only the functions below the "run-time side" marker import ``repro``,
so ``run.py`` and ``compare.py`` read the tables without paying for the
package import.
"""

from __future__ import annotations

import csv
import io
import math
import pathlib
from dataclasses import dataclass, field

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: Capacity axis of ``replay-compiled``: 1.00, 0.95, ..., 0.25.
FRACTIONS_16 = tuple(round(1.0 - 0.05 * i, 2) for i in range(16))


@dataclass(frozen=True)
class Workload:
    name: str
    #: problem keys the grid names (built from the seed, then registered)
    problems: tuple[str, ...]
    #: ``full_sweep`` keyword arguments besides ``jobs``/``runtime``;
    #: anything omitted keeps ``full_sweep``'s default
    grid: dict = field(default_factory=dict)
    #: ``>1``: the traced run adds one sweep on that many workers under
    #: the supervised executor (``RuntimePolicy()``) for the runtime
    #: layer; timed sweeps are always serial
    jobs: int = 1


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sweep-default", ("chol15", "lu-goodwin")),
        Workload(
            "replay-compiled", ("chol15",),
            dict(workloads=("chol15",), procs=(8,), fractions=FRACTIONS_16,
                 engine="compiled"),
        ),
        Workload(
            "inspect-wide", ("chol24", "etree15"),
            dict(workloads=("chol24", "etree15"), procs=(2, 32),
                 heuristics=("rcp", "mpo", "dts", "tree"), fractions=(1.0,)),
        ),
        Workload(
            "sweep-verified", ("chol15", "lu-goodwin"),
            dict(procs=(2, 4), metrics=True, check=True, analyze=True,
                 bounds=True),
            jobs=2,
        ),
    )
}


def golden_path(workload: str, seed: int) -> pathlib.Path:
    return GOLDEN_DIR / f"{workload}-s{seed}.csv"


# -- run-time side (imports repro) ----------------------------------------


def build_problem(key: str, seed: int, spec):
    """The named workload problem with its generator seed shifted by
    ``seed``; identical to ``ExperimentContext.problem(key)`` at seed 0."""
    from repro.sparse.cholesky import build_cholesky
    from repro.sparse.lu import build_lu
    from repro.sparse.matrices import bcsstk15_like, bcsstk24_like, goodwin_like
    from repro.sparse.treegraph import build_etree_problem

    flop_time = 1.0 / spec.flop_rate
    if key == "chol15":
        return build_cholesky(
            bcsstk15_like(scale=0.15, seed=15 + seed), block_size=12,
            flop_time=flop_time, with_kernels=False,
        )
    if key == "chol24":
        return build_cholesky(
            bcsstk24_like(scale=0.15, seed=24 + seed), block_size=12,
            flop_time=flop_time, with_kernels=False,
        )
    if key == "lu-goodwin":
        return build_lu(
            goodwin_like(scale=0.07, seed=7 + seed), block_size=12,
            flop_time=flop_time, with_kernels=False,
        )
    if key == "etree15":
        return build_etree_problem(
            bcsstk15_like(scale=0.15, seed=15 + seed), flop_time=flop_time,
        )
    raise KeyError(key)


def context(w: Workload, seed: int):
    """A fresh ``ExperimentContext`` holding ``w``'s problems for ``seed``."""
    from repro.experiments.common import ExperimentContext

    ctx = ExperimentContext()
    for key in w.problems:
        ctx.register(key, build_problem(key, seed, ctx.spec))
    return ctx


def sweep_kwargs(w: Workload, supervised: bool = False) -> dict:
    """``full_sweep`` arguments of ``w``: serial and in-process, or with
    ``supervised=True`` on ``w.jobs`` workers under the supervised
    executor."""
    kwargs = dict(w.grid)
    if supervised:
        from repro.experiments.runtime import RuntimePolicy

        kwargs.update(jobs=w.jobs, runtime=RuntimePolicy())
    return kwargs


def _axis(w: Workload, axis: str) -> tuple:
    """``w``'s value of a grid axis, or ``full_sweep``'s default."""
    import inspect

    from repro.experiments.sweep import full_sweep

    return tuple(w.grid.get(
        axis, inspect.signature(full_sweep).parameters[axis].default))


def groups(w: Workload) -> list[tuple[str, int]]:
    """``(workload, P)`` groups of ``w`` in the order a serial sweep
    runs them."""
    return [(key, p) for key in _axis(w, "workloads") for p in _axis(w, "procs")]


def group_kwargs(w: Workload, key: str, p: int) -> dict:
    """``full_sweep`` arguments that run only group ``(key, p)`` of ``w``."""
    return {**w.grid, "workloads": (key,), "procs": (p,)}


def cell_count(w: Workload) -> int:
    """Cells of ``w``'s grid; axes it leaves unset take ``full_sweep``'s
    defaults."""
    n = len(groups(w))
    for axis in ("heuristics", "fractions"):
        n *= len(_axis(w, axis))
    return n


# -- output checks ---------------------------------------------------------


def _num(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def row_ok(row: dict) -> bool:
    """Invariants every sweep row satisfies, whatever the seed.

    A failure row of the supervised executor never passes.  With the
    opt-in columns present, executable cells must show no invariant
    violation and no analyzer error, and stay at or above their
    certified lower bounds."""
    if row.get("status"):
        return False
    executable = row["executable"] == "True"
    tot, cap, min_mem = int(row["tot"]), int(row["capacity"]), int(row["min_mem"])
    pt = _num(row["parallel_time"])
    if cap != math.floor(tot * float(row["fraction"])):
        return False
    if executable != (min_mem <= cap) or executable != (0.0 < pt < math.inf):
        return False
    if not executable:
        return True
    return (
        _num(row.get("violations") or "0") == 0
        and _num(row.get("analysis_errors") or "0") == 0
        and _num(row.get("pt_bound") or "0") <= pt * (1 + 1e-9)
        and _num(row.get("mem_bound") or "0") <= min_mem
    )


def failed_cells(text: str, expected_cells: int, golden: str | None) -> int:
    """Cells of one sweep's CSV that fail: rows breaking :func:`row_ok`,
    rows that differ from the golden CSV of the seed (when one exists),
    and missing or surplus rows."""
    rows = list(csv.DictReader(io.StringIO(text)))
    bad = {i for i, r in enumerate(rows) if not row_ok(r)}
    if golden is not None:
        got, want = text.splitlines(), golden.splitlines()
        if got[:1] != want[:1]:
            return expected_cells
        bad |= {i for i, (a, b) in enumerate(zip(got[1:], want[1:])) if a != b}
    return min(len(bad) + abs(expected_cells - len(rows)), expected_cells)

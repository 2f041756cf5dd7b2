"""Importing the CLI or the sweep must not load SciPy's numeric modules,
nor the interpreted reference engine.

A sweep builds its problems without numeric kernels and orders them
with minimum degree, so ``scipy.linalg`` (the kernels and solvers),
``scipy.io`` (Harwell-Boeing files) and ``scipy.sparse.csgraph`` (RCM)
are imported inside the functions that use them.  The default engine
is the compiled one, so ``repro.machine.reference`` is imported only by
an ``engine="interpreted"`` run and by the oracles that read its name
tables (the invariant checker of ``check=True``, the dataflow recorder,
the IR verifier and the deadlock report); an observed group without
``check`` leaves it unloaded.  Each check runs in a fresh interpreter,
because the test process has long since imported them, and without
``REPRO_VERIFY_IR``: the IR verifier is one of those oracles.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
LAZY = ("scipy.linalg", "scipy.io", "scipy.sparse.csgraph",
        "repro.machine.reference")


def loaded_after(statement: str) -> list[str]:
    """The :data:`LAZY` modules present after ``statement`` runs in a
    fresh interpreter."""
    code = (
        f"import sys\n{statement}\n"
        f"print(' '.join(m for m in {LAZY!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_VERIFY_IR", None)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    return out.stdout.split()


@pytest.mark.parametrize("module", ["repro.cli", "repro.experiments.sweep"])
def test_import_leaves_numeric_modules_unloaded(module):
    assert loaded_after(f"import {module}") == []


def test_sweep_group_leaves_numeric_modules_unloaded():
    """Running a sweep group (build, order, schedule, simulate) needs
    none of them either."""
    loaded = loaded_after(
        "from repro.experiments import ExperimentContext, full_sweep\n"
        "full_sweep(ExperimentContext(), workloads=('lu-goodwin',),"
        " procs=(2,), heuristics=('rcp',), fractions=(1.0,))"
    )
    assert loaded == []



def test_observed_group_without_check_leaves_the_reference_unloaded():
    """Metrics, static analysis and bounds read no name table."""
    loaded = loaded_after(
        "from repro.experiments import ExperimentContext, full_sweep\n"
        "full_sweep(ExperimentContext(), workloads=('lu-goodwin',),"
        " procs=(2,), heuristics=('rcp',), fractions=(1.0, 0.5),"
        " metrics=True, analyze=True, bounds=True)"
    )
    assert loaded == []

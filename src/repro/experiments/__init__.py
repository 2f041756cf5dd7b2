"""Regeneration of the paper's evaluation (Tables 1-8, Figure 7).

Typical use::

    from repro.experiments import ExperimentContext, tables, figure7, table8
    ctx = ExperimentContext()
    print(tables.table2(ctx).render())
    print(figure7.figure7(ctx, "cholesky").render())
    print(table8.table8().render())
"""

from .common import (
    ExperimentContext,
    FRACTIONS,
    FRACTIONS_CMP,
    PROCS,
    compare_pt,
)
from . import checkpoint, figure7, report, runtime, sweep, table8, tables, validate
from .runtime import CellFailure, HarnessFaultSpec, RuntimePolicy
from .checkpoint import CheckpointJournal, grid_fingerprint
from .sweep import SweepRecord, from_csv, full_sweep, to_csv
from .validate import Claim, render_scorecard
from .validate import validate as run_validation
from .figure7 import figure7 as run_figure7
from .table8 import table8 as run_table8
from .tables import (
    gap_scorecard,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
)

__all__ = [
    "CellFailure",
    "CheckpointJournal",
    "ExperimentContext",
    "HarnessFaultSpec",
    "RuntimePolicy",
    "checkpoint",
    "grid_fingerprint",
    "runtime",
    "FRACTIONS",
    "FRACTIONS_CMP",
    "PROCS",
    "compare_pt",
    "figure7",
    "report",
    "Claim",
    "SweepRecord",
    "from_csv",
    "full_sweep",
    "gap_scorecard",
    "render_scorecard",
    "run_figure7",
    "run_table8",
    "run_validation",
    "sweep",
    "to_csv",
    "validate",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "tables",
]

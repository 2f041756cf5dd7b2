"""Interaction matrix: ``full_sweep`` across jobs x observation flags
x engine.

The sweep contract is that none of the orthogonal features changes the
measured numbers: worker processes return the serial records verbatim,
observation (``metrics``/``check``/``analyze``) only *appends* columns,
and the compiled engine agrees with the interpreted oracle bit for bit.
This suite pins the whole matrix to one baseline — the serial,
flags-off, interpreted sweep — by comparing CSV bytes: directly for
flag-less combinations, and after projecting away the appended optional
columns for observed ones.
"""

import dataclasses
import itertools

import pytest

from repro.experiments import ExperimentContext
from repro.experiments.sweep import full_sweep, to_csv

GRID = dict(
    workloads=("lu-goodwin",),
    procs=(2, 4),
    heuristics=("rcp",),
    fractions=(1.0, 0.5),
    reference="rcp",
)

OPTIONAL = ("map_overhead_frac", "max_hwm", "max_suspq", "violations",
            "analysis_errors")


def core_csv(records) -> str:
    """CSV of the records with every optional (appended) column
    stripped — the exact bytes a flags-off sweep would produce *iff*
    the mandatory fields are untouched."""
    return to_csv([
        dataclasses.replace(r, **dict.fromkeys(OPTIONAL, None))
        for r in records
    ])


@pytest.fixture(scope="module")
def baseline_csv():
    """Serial, flags-off, interpreted-engine sweep."""
    return to_csv(full_sweep(ExperimentContext(), jobs=1, **GRID))


FLAG_SETS = [
    {},
    {"metrics": True},
    {"check": True},
    {"analyze": True},
    {"metrics": True, "check": True, "analyze": True},
]


@pytest.mark.parametrize(
    "jobs,engine,flags",
    [
        pytest.param(jobs, engine, flags,
                     id=f"jobs{jobs}-{engine}-{'+'.join(flags) or 'plain'}")
        for jobs, engine, flags in itertools.product(
            (1, 2), ("interpreted", "compiled"), FLAG_SETS
        )
    ],
)
def test_matrix_cell_matches_baseline(jobs, engine, flags, baseline_csv):
    records = full_sweep(
        ExperimentContext(), jobs=jobs, engine=engine, **GRID, **flags
    )
    if not flags:
        # No observation: the CSV must be byte-identical outright.
        assert to_csv(records) == baseline_csv
    else:
        # Observation appends columns; the mandatory columns must
        # survive untouched (byte-identical after projection).
        assert core_csv(records) == baseline_csv
        header = to_csv(records).splitlines()[0]
        if "metrics" in flags:
            assert "max_hwm" in header
        if "check" in flags:
            assert "violations" in header
        if "analyze" in flags:
            assert "analysis_errors" in header


def test_compiled_engine_cli_csv_identical(tmp_path, capsys):
    """The CLI surface of the same guarantee: ``sweep --engine
    compiled`` writes the same bytes as the interpreted sweep, over every
    default heuristic and fraction at P 2 and 4."""
    from repro.cli import main

    outs = {}
    for engine in ("interpreted", "compiled"):
        out = tmp_path / f"{engine}.csv"
        assert main(
            ["sweep", "--procs", "2", "4", "--engine", engine,
             "--out", str(out)]
        ) == 0
        outs[engine] = out.read_bytes()
    capsys.readouterr()
    assert outs["interpreted"] == outs["compiled"]

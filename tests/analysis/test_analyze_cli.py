"""CLI contract of `repro analyze` and `repro sweep --analyze`."""

import json

from repro.cli import main


def test_analyze_clean_exit_zero(capsys):
    assert main(["analyze", "--seed", "7", "--graphs", "2"]) == 0
    out = capsys.readouterr().out
    assert "9/9 plans statically clean" in out
    assert "paper/rcp: OK" in out


def test_analyze_overwrite_fails_with_cycle(capsys):
    code = main(["analyze", "--fault", "overwrite", "--graphs", "1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "overwrite-demo: FAIL" in out
    assert "SA302" in out and "SA301" in out
    assert "cycle: P0 -> P1 -> P0" in out


def test_analyze_timing_fault_stays_clean(capsys):
    assert main(["analyze", "--fault", "slow", "--graphs", "1"]) == 0
    assert "plans statically clean" in capsys.readouterr().out


def test_analyze_json_format(capsys):
    assert main(["analyze", "--graphs", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro-analysis/1"
    assert all(r["ok"] for r in doc["runs"])


def test_analyze_sarif_out(tmp_path, capsys):
    sarif = tmp_path / "report.sarif"
    code = main([
        "analyze", "--fault", "overwrite", "--graphs", "1",
        "--format", "sarif", "--out", str(sarif),
    ])
    assert code == 1
    capsys.readouterr()
    doc = json.loads(sarif.read_text())
    assert doc["version"] == "2.1.0"
    [run] = doc["runs"]
    assert len(run["tool"]["driver"]["rules"]) == 22
    flagged = {r["ruleId"] for r in run["results"]}
    assert {"SA301", "SA302"} <= flagged


def test_analyze_single_workload(capsys):
    assert main([
        "analyze", "--workload", "paper", "--fraction", "1.0",
    ]) == 0
    assert "statically clean" in capsys.readouterr().out


def test_list_mentions_analyze(capsys):
    assert main(["list"]) == 0
    assert "analyze" in capsys.readouterr().out.split()


def test_sweep_analyze_column(tmp_path, capsys):
    """`sweep --analyze` appends the analysis_errors column; without the
    flag the CSV is byte-identical (same opt-in contract as --check)."""
    plain = tmp_path / "plain.csv"
    analyzed = tmp_path / "analyzed.csv"
    assert main(["sweep", "--procs", "4", "--out", str(plain)]) == 0
    assert main([
        "sweep", "--procs", "4", "--analyze", "--out", str(analyzed),
    ]) == 0
    capsys.readouterr()
    plain_lines = plain.read_text().splitlines()
    analyzed_lines = analyzed.read_text().splitlines()
    assert not plain_lines[0].endswith(",analysis_errors")
    assert analyzed_lines[0] == plain_lines[0] + ",analysis_errors"
    for pl_row, an_row in zip(plain_lines[1:], analyzed_lines[1:]):
        prefix, errs = an_row.rsplit(",", 1)
        assert prefix == pl_row  # timing unchanged by the analyzer
        # Executable cells are clean; non-executable cells count their
        # SA101 findings (a real value, not inf: no simulation needed).
        executable = pl_row.split(",")[4] == "True"
        assert (errs == "0.0") == executable
        assert float(errs) >= 0 and errs != "inf"

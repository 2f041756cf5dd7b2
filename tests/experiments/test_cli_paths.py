"""CLI coverage for every experiment dispatch path (tiny configs)."""

import pytest

from repro.cli import main


@pytest.mark.parametrize(
    "name",
    ["table2", "table3", "table5"],
)
def test_table_paths(name, capsys):
    assert main([name, "--procs", "4"]) == 0
    out = capsys.readouterr().out
    assert name.replace("table", "Table ") in out


@pytest.mark.parametrize("name", ["table4", "table6", "table7"])
def test_comparison_paths(name, capsys):
    assert main([name, "--app", "lu", "--procs", "4", "8"]) == 0
    out = capsys.readouterr().out
    assert "(lu)" in out


def test_comparison_both_apps(capsys):
    assert main(["table4", "--procs", "4"]) == 0
    out = capsys.readouterr().out
    assert "(cholesky)" in out and "(lu)" in out


@pytest.mark.slow
def test_table8_path(capsys):
    assert main(["table8"]) == 0
    assert "Table 8" in capsys.readouterr().out


def test_sweep_jobs_identical_output(tmp_path, capsys):
    """`sweep --jobs 2` writes byte-identical CSV to the serial run."""
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert main(["sweep", "--procs", "4", "--out", str(serial)]) == 0
    assert main(["sweep", "--procs", "4", "--jobs", "2", "--out", str(parallel)]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == parallel.read_bytes()


def test_trace_paper_exports(tmp_path, capsys):
    """`trace` on the paper example writes all three artifacts."""
    m = tmp_path / "metrics.json"
    t = tmp_path / "trace.json"
    r = tmp_path / "report.html"
    assert main([
        "trace", "--metrics", str(m), "--trace-out", str(t),
        "--report", str(r),
    ]) == 0
    out = capsys.readouterr().out
    assert "map_overhead=" in out
    import json

    doc = json.loads(m.read_text())
    assert doc["schema"] == "repro-metrics/1"
    assert json.loads(t.read_text())["traceEvents"]
    assert "<svg" in r.read_text()


def test_trace_summary_only(capsys):
    assert main(["trace"]) == 0
    out = capsys.readouterr().out
    assert "summary only" in out


def test_trace_workload_not_executable(capsys):
    assert main([
        "trace", "--workload", "lu-goodwin", "--procs", "4",
        "--fraction", "0.01",
    ]) == 2
    assert "not executable" in capsys.readouterr().err


def test_sweep_prints_summary_without_obs(tmp_path, capsys):
    """The stderr summary (elapsed + per-status counts) appears even
    with observability off — satellite of the runtime-trace work."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--procs", "4", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "sweep: " in err and " cells (" in err and " ok" in err


def test_sweep_obs_dir_writes_merged_trace(tmp_path, capsys):
    """`sweep --obs-dir` produces runtime shards plus the auto-merged
    Perfetto trace, and the CSV matches an unobserved run's bytes."""
    import json

    plain = tmp_path / "plain.csv"
    observed = tmp_path / "observed.csv"
    obs = tmp_path / "obs"
    assert main(["sweep", "--procs", "4", "--out", str(plain)]) == 0
    assert main([
        "sweep", "--procs", "4", "--out", str(observed),
        "--obs-dir", str(obs), "--jobs", "2",
    ]) == 0
    capsys.readouterr()
    assert observed.read_bytes() == plain.read_bytes()
    assert list(obs.glob("runtime-*.jsonl"))
    doc = json.loads((obs / "sweep_trace.json").read_text())
    assert doc["traceEvents"]


def test_obs_merge_command(tmp_path, capsys):
    """`repro obs merge --obs-dir` re-merges an existing directory."""
    import json

    obs = tmp_path / "obs"
    assert main([
        "sweep", "--procs", "4", "--out", str(tmp_path / "s.csv"),
        "--obs-dir", str(obs),
    ]) == 0
    (obs / "sweep_trace.json").unlink()
    assert main(["obs", "merge", "--obs-dir", str(obs)]) == 0
    out = capsys.readouterr().out
    assert "sweep_trace.json" in out
    assert json.loads((obs / "sweep_trace.json").read_text())["traceEvents"]


def test_obs_requires_action_and_dir(capsys):
    assert main(["obs"]) == 2
    assert main(["obs", "merge"]) == 2
    capsys.readouterr()


def test_obs_merge_names_a_missing_dir(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    assert main(["obs", "merge", "--obs-dir", str(missing)]) == 2
    assert f"--obs-dir {missing}: no such directory" in capsys.readouterr().err


def test_obs_merge_names_a_dir_without_shards(tmp_path, capsys):
    """An existing directory with no runtime shards is not merged into
    an empty trace: exit 2 naming it, and nothing is written."""
    assert main(["obs", "merge", "--obs-dir", str(tmp_path)]) == 2
    assert (f"--obs-dir {tmp_path}: no runtime-trace shards"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [["trace", "--metrics"], ["trace", "--trace-out"], ["trace", "--report"],
     ["check", "--graphs", "1", "--trace-out"],
     ["analyze", "--graphs", "1", "--out"]],
    ids=["trace-metrics", "trace-trace-out", "trace-report", "check-trace-out",
         "analyze-out"],
)
def test_an_export_path_that_is_a_directory_exits_2(argv, tmp_path, capsys):
    """Each export flag names the directory it was given instead of
    ending in a bare ``IsADirectoryError``, and nothing runs."""
    assert main([*argv, str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert f"{argv[-1]} {tmp_path} is a directory" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_obs_merge_trace_out_directory_exits_2(tmp_path, capsys):
    obs = tmp_path / "obs"
    assert main([
        "sweep", "--procs", "2", "--workloads", "lu-goodwin",
        "--out", str(tmp_path / "s.csv"), "--obs-dir", str(obs),
    ]) == 0
    capsys.readouterr()
    assert main(["obs", "merge", "--obs-dir", str(obs),
                 "--trace-out", str(tmp_path)]) == 2
    assert f"--trace-out {tmp_path} is a directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["trace", "--workload", "lu-goodwin", "--procs", "0"],
         "processor counts must be integers >= 1, got [0]"),
        (["analyze", "--workload", "paper", "--procs", "0"],
         "processor counts must be integers >= 1, got [0]"),
        (["trace", "--workload", "lu-goodwin", "--fraction", "nan"],
         "memory fractions must be finite and >= 0, got [nan]"),
        (["trace", "--workload", "lu-goodwin", "--fraction", "-1"],
         "memory fractions must be finite and >= 0, got [-1.0]"),
        (["trace", "--workload", "nope"],
         "unknown workload(s) ['nope']; choose from ['paper', 'chol15', "
         "'chol24', 'etree15', 'lu-goodwin']"),
        (["analyze", "--workload", "nope"], "unknown workload(s) ['nope']"),
        (["check", "--graphs", "1", "--procs", "0"],
         "processor counts must be integers >= 1, got [0]"),
        (["check", "--graphs", "1", "--fraction", "nan"],
         "between MIN_MEM (0) and TOT (1), got nan"),
        (["check", "--graphs", "1", "--fraction", "1.5"],
         "between MIN_MEM (0) and TOT (1), got 1.5"),
        (["check", "--graphs", "1", "--fraction", "-0.5"],
         "between MIN_MEM (0) and TOT (1), got -0.5"),
        (["analyze", "--graphs", "1", "--fraction", "5"],
         "analyze --fraction is a position between MIN_MEM (0) and TOT (1), "
         "got 5.0"),
        (["check", "--graphs", "-1"], "argument --graphs: must be >= 0"),
        (["analyze", "--graphs", "-1"], "argument --graphs: must be >= 0"),
        (["gaps", "--node-budget", "-5"],
         "argument --node-budget: must be >= 1"),
        (["trace", "--fraction", "0.1"],
         "--workload paper (the worked example at capacity 8) does not read "
         "--fraction"),
        (["trace", "--procs", "8", "--heuristic", "rcp"],
         "does not read --procs, --heuristic"),
        (["analyze", "--seed", "7", "--bounds"],
         "the paper batch (--workload paper) does not read --bounds"),
        (["analyze", "--workload", "etree15", "--fault", "overwrite",
          "--seed", "99", "--graphs", "0"],
         "--workload etree15 does not read --seed, --graphs, --fault"),
        (["analyze", "--out", "."], "--out . is a directory"),
    ],
    ids=["trace-procs", "analyze-paper-procs", "trace-nan", "trace-negative",
         "trace-workload", "analyze-workload", "check-procs", "check-nan",
         "check-above-tot", "check-below-min-mem", "analyze-paper-above-tot",
         "check-graphs", "analyze-graphs", "gaps-node-budget",
         "trace-paper-fraction", "trace-paper-procs", "analyze-batch-bounds",
         "analyze-workload-batch-flags", "analyze-out-dir"],
)
def test_trace_and_analyze_reject_a_bad_cell(argv, message, capsys):
    """`trace`/`analyze` check --procs/--fraction like `sweep` does, and
    --workload against the known workloads; `check` and the paper batch
    of `analyze` check --procs and their --fraction, a position in
    [0, 1] between MIN_MEM and TOT.  Each exits 2 with a named message,
    not a bare traceback, a negative capacity or a silently clamped
    position; so do a count below its range and a flag that the mode
    does not read (the worked example's run, the paper batch or one
    workload cell)."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_sweep_metrics_columns(tmp_path, capsys):
    """`sweep --metrics` adds telemetry columns; without it the CSV
    stays in the legacy format."""
    plain = tmp_path / "plain.csv"
    inst = tmp_path / "metrics.csv"
    assert main(["sweep", "--procs", "4", "--out", str(plain)]) == 0
    assert main(["sweep", "--procs", "4", "--metrics", "--out", str(inst)]) == 0
    capsys.readouterr()
    assert "map_overhead_frac" not in plain.read_text()
    header = inst.read_text().splitlines()[0]
    assert header.endswith("map_overhead_frac,max_hwm,max_suspq")


@pytest.mark.parametrize(
    "bad",
    [
        ["--workloads", "nope"],
        ["--procs", "0"],
        ["--harness-fault", "explode:lu-goodwin:4"],
        ["--timeout", "-1"],
        ["--retries", "0"],
        ["--jobs", "-1"],
    ],
)
def test_sweep_bad_grid_exits_2_before_work(bad, tmp_path, capsys):
    """A supervised --jobs 2 sweep rejects a bad grid or supervision
    knob up front (exit 2, no CSV) instead of retrying it into
    status=error rows or running with a deadline already past."""
    out = tmp_path / "never.csv"
    rc = main(["sweep", "--jobs", "2", "--supervised", *bad,
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    if "nope" in bad:
        err = capsys.readouterr().err
        assert "nope" in err and "chol15" in err and "lu-goodwin" in err

"""Command-line interface: regenerate the paper's experiments.

Every command has its own subparser and accepts only the flags it
reads: ``python -m repro list`` lists the commands and ``python -m
repro <command> --help`` one command's flags.  A flag the command (for
``trace`` and ``analyze``: its mode) does not read, or a value out of
range, exits 2 with a message that names the command and the flag.

Usage::

    python -m repro figure7 --app lu --procs 4 8
    python -m repro sweep --jobs 0 --metrics --check --analyze --bounds
    python -m repro sweep --jobs 4 --checkpoint ckpt/ --resume
    python -m repro trace --workload chol15 --metrics metrics.json
    python -m repro check --fault overwrite --trace-out fail.json
    python -m repro analyze --workload etree15 --heuristic rcp --verify-ir
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import Optional, Sequence

from .experiments import (
    ExperimentContext,
    run_figure7,
    run_table8,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
)
from .experiments.common import require_grid, require_known
from .experiments.tables import (
    SCORECARD_NODE_BUDGET,
    SCORECARD_PROCS,
    SCORECARD_WORKLOADS,
)
from .fileio import atomic_write_text
from .opt.gaps import GAP_HEURISTICS

EXPERIMENTS = ("table1", "table2", "table3", "table4", "table5", "table6",
               "table7", "table8", "figure7")
_PER_TABLE = {"table1": table1, "table2": table2, "table3": table3,
              "table5": table5}
_PER_APP = {"table4": table4, "table6": table6, "table7": table7,
            "figure7": run_figure7}
_PAPER_RUN = "--workload paper (the worked example at capacity 8)"
_PAPER_BATCH = "the paper batch (--workload paper)"
_HARNESS_FAULT = re.compile(r"(kill|hang|error):([^:]+):(\d+)(?::(all|\d+(?:,\d+)*))?")


def run_experiment(name: str, ctx: ExperimentContext, procs=None,
                   app: Optional[str] = None) -> str:
    """Render one table or figure; ``procs`` (default: the table's own)
    and ``app`` (default: both applications) narrow it."""
    kw = {"procs": tuple(procs)} if procs else {}
    if name == "table8":
        return run_table8().render()
    if name in _PER_APP:
        apps = (app,) if app else ("cholesky", "lu")
        return "\n\n".join(_PER_APP[name](ctx, a, **kw).render() for a in apps)
    return _PER_TABLE[name](ctx, **kw).render()


def _run_experiments(args) -> int:
    ctx = ExperimentContext()
    for name in args.experiments:
        print(run_experiment(name, ctx, vars(args).get("procs"),
                             vars(args).get("app")))
        print()
    return 0


def _paper_schedules():
    """The worked example's graph and its Figure 2(b), Figure 2(c) and
    DTS (Figure 5) schedules, by file label."""
    from .core import dts_order
    from .graph.paper_example import (
        paper_assignment,
        paper_example_graph,
        paper_placement,
        schedule_b,
        schedule_c,
    )

    g = paper_example_graph()
    pl = paper_placement()
    return g, {"fig2b_rcp": schedule_b(g), "fig2c_mpo": schedule_c(g),
               "fig5_dts": dts_order(g, pl, paper_assignment(g, pl))}


def _run_example(args) -> int:
    from .core import analyze_memory, plan_maps
    from .core.dcg import build_dcg

    g, scheds = _paper_schedules()
    mem = {k: analyze_memory(s).min_mem for k, s in scheds.items()}
    print(f"Figure 2(a): {g.num_tasks} tasks, {g.num_objects} objects")
    print(f"MIN_MEM Fig2(b) = {mem['fig2b_rcp']} (paper: 9)")
    print(f"MIN_MEM Fig2(c) = {mem['fig2c_mpo']} (paper: 8)")
    print(f"MIN_MEM DTS     = {mem['fig5_dts']} (paper: 7)")
    print("DCG slices: " + " -> ".join(o[0] for o in build_dcg(g).comp_objects))
    plan = plan_maps(analyze_memory(scheds["fig2c_mpo"]), 8)
    print(f"MAPs under capacity 8: {plan.maps_per_proc} per processor")
    return 0


def _run_svg(args) -> int:
    """Write Gantt + memory SVGs of the paper example's three schedules."""
    from .core import analyze_memory, gantt
    from .core.viz import gantt_svg, memory_svg

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for label, sched in _paper_schedules()[1].items():
        p1 = out / f"{label}_gantt.svg"
        gantt_svg(gantt(sched), path=str(p1), label_tasks=True)
        p2 = out / f"{label}_memory.svg"
        memory_svg(analyze_memory(sched), path=str(p2), capacity=8)
        print(f"wrote {p1}\nwrote {p2}")
    return 0


def _run_validate(args) -> int:
    from .experiments.validate import render_scorecard, validate

    claims = validate(ExperimentContext())
    print(render_scorecard(claims))
    return 0 if all(c.passed for c in claims) else 1


def _run_list(args) -> int:
    for name, sub in commands(build_parser()).items():
        print(f"{name:<10} {sub.description}")
    return 0


def _harness_fault(text: str) -> tuple:
    """argparse ``type=`` of one ``--harness-fault
    KIND:WORKLOAD:PROCS[:ATTEMPTS]``: ``KIND`` is ``kill``, ``hang`` or
    ``error``; ``ATTEMPTS`` is a comma-separated list of 1-based attempt
    numbers or ``all`` (default ``1`` — the fault fires once and the
    retry succeeds)."""
    match = _HARNESS_FAULT.fullmatch(text)
    if match is None:
        raise argparse.ArgumentTypeError(
            f"bad {text!r}; expected KIND:WORKLOAD:PROCS[:ATTEMPTS] with "
            "KIND in kill/hang/error")
    kind, workload, procs, attempts = match.groups("1")
    return kind, (workload, int(procs)), (
        () if attempts == "all" else tuple(map(int, attempts.split(","))))


def _harness_faults(faults):
    """One :class:`~repro.experiments.runtime.HarnessFaultSpec` of the
    parsed ``--harness-fault`` flags (None if none was given)."""
    from .experiments.runtime import HarnessFaultSpec

    if not faults:
        return None
    if len({attempts for _, _, attempts in faults}) > 1:
        raise ValueError("all --harness-fault flags must agree on ATTEMPTS")
    return HarnessFaultSpec(**{
        kind: tuple(group for k, group, _ in faults if k == kind)
        for kind in ("kill", "hang", "error")
    }, on_attempts=faults[0][2])


def _given(args, *names: str) -> dict:
    """The list-valued flags among ``names`` that were given, as tuples
    (the ones left out keep the callee's defaults)."""
    return {n: tuple(getattr(args, n)) for n in names
            if getattr(args, n) is not None}


def _run_sweep(args) -> int:
    from time import monotonic

    from .experiments.sweep import full_sweep, to_csv
    from .obs.runtime import format_summary, status_counts

    # Supervision knobs only; full_sweep alone decides whether the
    # grid runs supervised.
    runtime = None
    if (args.supervised or args.timeout is not None
            or args.retries is not None):
        from .experiments.runtime import RuntimePolicy

        policy_kw = {}
        if args.timeout is not None:
            policy_kw["timeout"] = args.timeout or None
        if args.retries is not None:
            policy_kw["max_attempts"] = args.retries
        runtime = RuntimePolicy(**policy_kw)
    t0 = monotonic()
    try:
        records = full_sweep(
            ExperimentContext(), jobs=args.jobs, engine=args.engine,
            metrics=args.metrics, check=args.check, analyze=args.analyze,
            bounds=args.bounds, runtime=runtime, checkpoint=args.checkpoint,
            resume=args.resume, obs_dir=args.obs_dir, progress=args.progress,
            harness_faults=_harness_faults(args.harness_fault),
            **_given(args, "workloads", "procs", "heuristics"),
        )
    except (KeyError, ValueError) as err:
        # Bad grid or --harness-fault: surface the message (with the
        # choice listing) instead of a traceback.
        args.parser.error(str(err).strip('"'))
    elapsed = monotonic() - t0
    out = pathlib.Path(args.out)
    target = out / "sweep.csv" if out.is_dir() or not out.suffix else out
    target.parent.mkdir(parents=True, exist_ok=True)
    to_csv(records, path=str(target))
    print(f"wrote {target} ({len(records)} records)")
    if args.obs_dir:
        from .obs.sweep_trace import write_sweep_trace

        merged = write_sweep_trace(args.obs_dir)
        print(f"wrote {merged} (open at ui.perfetto.dev)")
    if not args.progress:
        # One-line wall-clock + per-status summary; --progress runs
        # already printed the identical line via the ticker's
        # sweep_end handler (same helpers, one source of truth).
        print(format_summary(status_counts(records), elapsed),
              file=sys.stderr)
    failed = sorted({
        (r.workload, r.procs, r.status)
        for r in records if r.status is not None
    })
    if failed:
        # Controlled degradation: completed cells were written (and
        # journaled under --checkpoint); the exit status still flags
        # the run so CI and drivers notice.
        for key, p, status in failed:
            print(f"group {key}@{p} failed: {status}", file=sys.stderr)
        print(
            f"{len(failed)} group(s) failed; re-run with --checkpoint/"
            "--resume to retry only the failed groups",
            file=sys.stderr,
        )
        return 3
    return 0


def _run_gaps(args) -> int:
    from .experiments.tables import gap_scorecard

    try:
        card = gap_scorecard(
            ExperimentContext(), node_budget=args.node_budget,
            **_given(args, "workloads", "procs", "heuristics"),
        )
    except KeyError as err:
        args.parser.error(str(err).strip('"'))
    print(card.render())
    return 0


def _run_obs_merge(args) -> int:
    from .obs.sweep_trace import write_sweep_trace

    if not pathlib.Path(args.obs_dir).is_dir():
        args.parser.error(f"--obs-dir {args.obs_dir}: no such directory")
    try:
        _files(args, "trace_out")
    except ValueError as err:
        args.parser.error(str(err))
    try:
        path = write_sweep_trace(args.obs_dir, args.trace_out)
    except ValueError as err:  # no runtime-trace shards
        args.parser.error(f"--obs-dir {err}")
    print(f"wrote {path} (open at ui.perfetto.dev)")
    return 0


def _fill(args, **defaults) -> None:
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _refuse(args, mode: str, *names: str) -> None:
    """Exit 2 naming every flag of ``names`` that was given although
    ``mode`` does not read it."""
    given = ["--" + n.replace("_", "-") for n in names
             if getattr(args, n) is not None]
    if given:
        args.parser.error(f"{mode} does not read {', '.join(given)}")


def _resolve_cell(args) -> None:
    """One workload cell of ``trace``/``analyze``: --procs and
    --fraction (a share of TOT) are checked like the sweep's grid."""
    _fill(args, procs=4, heuristic="mpo", fraction=0.5)
    require_grid((args.procs,), (args.fraction,))
    require_known("workload", (args.workload,),
                  ["paper", *ExperimentContext().known_workloads()])


def _resolve_batch(args) -> None:
    """The seeded batch of ``check`` and of ``analyze`` on the paper
    workload; its --fraction is a position between MIN_MEM and TOT."""
    _fill(args, seed=0, graphs=10, procs=3, fraction=0.5)
    require_grid((args.procs,), ())
    if not 0.0 <= args.fraction <= 1.0:
        raise ValueError(
            f"{args.command} --fraction is a position between "
            f"MIN_MEM (0) and TOT (1), got {args.fraction}"
        )


def _files(args, *names: str) -> None:
    """Reject (``ValueError``, an exit 2 through the command's parser)
    each output path of ``names`` that is a directory, naming it."""
    for name in names:
        path = getattr(args, name)
        if path is not None and pathlib.Path(path).is_dir():
            raise ValueError(
                f"--{name.replace('_', '-')} {path} is a directory, not a file")


def _resolve_check(args) -> None:
    _files(args, "trace_out")
    _resolve_batch(args)


def _resolve_trace(args) -> None:
    _files(args, "metrics", "trace_out", "report")
    if args.workload == "paper":
        _refuse(args, _PAPER_RUN, "procs", "heuristic", "fraction")
    else:
        _resolve_cell(args)


def _resolve_analyze(args) -> None:
    _files(args, "out")
    if args.workload == "paper":
        _refuse(args, _PAPER_BATCH, "heuristic", "bounds")
        _resolve_batch(args)
    else:
        _refuse(args, f"--workload {args.workload}", "seed", "graphs", "fault")
        _resolve_cell(args)
        _fill(args, bounds=False)


def _resolve_workload(args):
    """Resolve ``--workload/--procs/--heuristic/--fraction`` into
    ``(spec, compiled, capacity)``: the one place ``trace`` and
    ``analyze`` turn workload flags into a compiled schedule."""
    import math

    from .machine.simulator import CompiledSchedule

    if args.workload == "paper":
        from .graph.paper_example import schedule_c
        from .machine.spec import UNIT_MACHINE

        compiled = CompiledSchedule(schedule_c())
        return UNIT_MACHINE, compiled, 8
    ctx = ExperimentContext()
    compiled = ctx.compiled(args.workload, args.procs, args.heuristic)
    return ctx.spec, compiled, int(math.floor(compiled.profile.tot * args.fraction))


def _run_trace(args) -> int:
    """One instrumented simulation; export metrics / Chrome trace / report."""
    from .machine.simulator import Simulator
    from .obs import html_report, to_json, write_chrome_trace

    spec, compiled, capacity = _resolve_workload(args)
    prof = compiled.profile
    if prof.min_mem > capacity:
        print(
            f"not executable: MIN_MEM {prof.min_mem} > capacity {capacity} "
            f"({args.fraction:.0%} of TOT {prof.tot})",
            file=sys.stderr,
        )
        return 2
    sim = Simulator(spec=spec, capacity=capacity, compiled=compiled, metrics=True)
    res = sim.run()
    s = res.metrics["summary"]
    print(
        f"{res.schedule_label}: PT={res.parallel_time:g} "
        f"map_overhead={s['map_overhead_frac']:.4%} max_hwm={s['max_hwm']} "
        f"max_suspq={s['max_suspq']} utilization={s['utilization']:.2%}"
    )
    if args.metrics:
        to_json(res.metrics, args.metrics)
        print(f"wrote {args.metrics}")
    if args.trace_out:
        write_chrome_trace(res, args.trace_out)
        print(f"wrote {args.trace_out} (open at ui.perfetto.dev)")
    if args.report:
        html_report(res, args.report)
        print(f"wrote {args.report}")
    if not (args.metrics or args.trace_out or args.report):
        print("(no --metrics/--trace-out/--report given; summary only)")
    return 0


def _run_check(args) -> int:
    """Conformance batch: invariant checking + differential oracle.

    Exit status is 0 iff every checked run is clean — so
    ``repro check --fault overwrite`` exits non-zero by design (the
    deliberately injected slot overwrite must be detected).
    """
    from .conformance import check_batch, fault_preset, write_violation_trace
    from .conformance.check import overwrite_demo

    faults = fault_preset(args.fault, seed=args.seed) if args.fault else None
    reports = check_batch(args.seed, graphs=args.graphs, procs=args.procs,
                          faults=faults, fraction=args.fraction)
    if args.fault == "overwrite":
        # Organic plans are self-throttling (see overwrite_scenario), so
        # the overwrite kind additionally runs the buggy-planner demo.
        reports.append(overwrite_demo(seed=args.seed))
    failing = None
    for r in reports:
        print(r.summary())
        for v in r.violations:
            print(f"    {v}")
        if r.deadlock:
            print("    " + r.deadlock.replace("\n", "\n    "))
        if r.oracle is not None and not r.oracle.ok:
            print("    " + str(r.oracle).replace("\n", "\n    "))
        if not r.ok and failing is None:
            failing = r
    bad = sum(1 for r in reports if not r.ok)
    print(f"{len(reports) - bad}/{len(reports)} checked runs clean")
    if failing is not None and args.trace_out and failing.checker is not None:
        write_violation_trace(
            failing.checker, args.trace_out, label=failing.label
        )
        print(f"wrote {args.trace_out} (open at ui.perfetto.dev)")
    return 0 if bad == 0 else 1


def _run_analyze(args) -> int:
    """Static schedule sanitizer: the ``check`` batch, or one workload
    cell, analyzed in O(plan) with no simulation.

    Exits 1 on an error finding, or under ``--strict`` on an advisory
    one (``docs/analysis.md``), so ``--fault overwrite`` exits 1 by
    design: its buggy-planner demo must be flagged with its SA3xx cycle.
    ``--verify-ir`` appends an IR-verifier report (SA5xx).
    """
    import json

    from .analysis import (
        analyze_batch,
        analyze_overwrite_demo,
        analyze_schedule,
        render_text,
        to_json,
        to_sarif,
        verify_report,
    )
    from .conformance import fault_preset

    if args.workload != "paper":
        spec, compiled, capacity = _resolve_workload(args)
        reports = [analyze_schedule(
            compiled.schedule,
            capacity=max(capacity, 1),
            profile=compiled.profile,
            label=f"{args.workload}/{args.heuristic}",
            bounds=args.bounds,
            comm=spec.comm_model() if args.bounds else None,
        )]
        if args.verify_ir:
            reports.append(verify_report(
                compiled, capacity=max(capacity, 1), spec=spec,
                label=f"{args.workload}/{args.heuristic}/irverify",
            ))
    else:
        faults = fault_preset(args.fault, seed=args.seed) if args.fault else None
        reports = analyze_batch(args.seed, graphs=args.graphs, procs=args.procs,
                                fraction=args.fraction, faults=faults)
        if args.fault == "overwrite":
            # Same extra case as `check --fault overwrite`: organic
            # plans are self-throttling, the demo plan is not.
            reports.append(analyze_overwrite_demo())
        if args.verify_ir:
            # Verify the worked example's lowering alongside the batch.
            spec, compiled, capacity = _resolve_workload(args)
            reports.append(verify_report(compiled, capacity=capacity,
                                         spec=spec, label="paper/irverify"))

    if args.format == "json":
        doc = json.dumps(to_json(reports), indent=2, sort_keys=True)
    elif args.format == "sarif":
        doc = json.dumps(to_sarif(reports), indent=2, sort_keys=True)
    else:
        doc = render_text(reports)
    if args.out is not None:
        target = pathlib.Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(target, doc + "\n")
        print(f"wrote {target}")
    else:
        print(doc)
    clean = sum(1 for r in reports if r.ok)
    advisory = sum(1 for r in reports if r.ok and r.diagnostics)
    if args.format == "text" or args.out is not None:
        tail = f" ({advisory} with advisories)" if advisory else ""
        print(f"{clean}/{len(reports)} plans statically clean{tail}")
    return 1 if clean != len(reports) or (args.strict and advisory) else 0


def _at_least(low, kind=int):
    """argparse ``type=``: parse ``kind`` and reject a value below
    ``low`` (or NaN); argparse names the flag in the error."""
    def parse(text: str):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" wording
    return parse


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser: one subparser per command, each declaring
    only the flags its ``func`` reads; ``resolve`` (``trace``, ``check``,
    ``analyze``) fills the mode-dependent defaults and checks the cell."""
    parser = argparse.ArgumentParser(
        prog="repro", allow_abbrev=False,
        description="Regenerate the evaluation of Fu & Yang, PPoPP 1997. "
                    "'repro <command> --help' lists a command's flags.")
    top = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    def command(name, func, text, subs=top, resolve=None, **defaults):
        sub = subs.add_parser(name, help=text, description=text,
                              allow_abbrev=False)
        sub.set_defaults(func=func, parser=sub, resolve=resolve, **defaults)
        return sub.add_argument

    def procs(add, default):
        add("--procs", type=_at_least(1), nargs="+", metavar="P",
            help=f"processor counts (default {default})")

    def grid(add, workloads, default_procs, heuristics, choices=None):
        add("--workloads", nargs="+", metavar="KEY",
            help=f"workload keys (default {workloads})")
        procs(add, default_procs)
        add("--heuristics", nargs="+", metavar="NAME", choices=choices,
            help=f"ordering heuristics (default {heuristics})")

    def cell(add, workload, procs_help, fraction):
        add("--workload", default="paper", help=workload)
        add("--procs", type=int, metavar="P", help=procs_help)
        add("--heuristic", choices=("rcp", "mpo", "dts", "etf", "tree",
                                    "exact"),
            help="a workload's ordering heuristic (default mpo)")
        add("--fraction", type=float, help=fraction)

    def batch(add):
        add("--seed", type=int, help="base seed of the batch (default 0)")
        add("--graphs", type=_at_least(0), help="random DAGs (default 10)")
        add("--fault", choices=("delay", "jitter", "consume", "slow",
                                "tighten", "overwrite"),
            help="fault-injection preset (see docs/conformance.md)")

    for name in EXPERIMENTS + ("all",):
        add = command(
            name, _run_experiments,
            "every table and Figure 7 (a few minutes)" if name == "all"
            else name.replace("table", "Table ").replace("figure", "Figure ")
            + " of the paper",
            experiments=EXPERIMENTS if name == "all" else (name,))
        if name != "table8":
            procs(add, "2 4 8 16 32; table1: 2 4 8 16")
        if name in _PER_APP or name == "all":
            add("--app", choices=("cholesky", "lu"),
                help="one application (default both)")
    command("example", _run_example,
            "the worked example of Figures 2, 3 and 5, figure by figure")
    add = command("svg", _run_svg, "Gantt and memory SVGs of the worked "
                  "example's three schedules")
    add("--out", default=".", metavar="DIR", help="output directory (default .)")

    add = command("sweep", _run_sweep,
                  "the raw (workload, P, heuristic, fraction) grid as CSV")
    grid(add, "chol15 lu-goodwin", "2 4 8 16 32", "rcp mpo dts")
    add("--jobs", type=_at_least(0), default=1, help="worker processes "
        "(0 = one per CPU; N > 1 runs supervised; same CSV as --jobs 1)")
    add("--out", default=".", metavar="PATH", help="CSV file, or a "
        "directory to write sweep.csv into (default .)")
    for flag, text in (
            ("--metrics", "add per-cell telemetry columns"),
            ("--check", "attach the invariant checker to every cell and "
                        "add a 'violations' column"),
            ("--analyze", "statically analyze every cell and add an "
                          "'analysis_errors' column"),
            ("--bounds", "add certified-bound columns (pt_bound, "
                         "mem_bound, *_gap)"),
            ("--supervised", "run under the fault-tolerant supervisor "
                             "(see docs/resilience.md)")):
        add(flag, action="store_true", help=text)
    add("--engine", default="compiled", choices=("compiled", "interpreted"),
        help="simulator engine (default compiled); 'interpreted' runs the "
             "reference oracle.  Both write the same CSV bytes")
    add("--timeout", type=_at_least(0, float), metavar="S", help="per-group "
        "timeout in seconds (0 = never; implies --supervised)")
    add("--retries", type=_at_least(1), metavar="N", help="attempts per "
        "group before it is recorded as failed (implies --supervised)")
    add("--checkpoint", metavar="DIR", help="journal completed groups to "
        "DIR as they finish (implies --supervised)")
    add("--resume", action="store_true", help="replay the groups already "
        "committed to the --checkpoint journal and run only the rest")
    add("--harness-fault", action="append", type=_harness_fault,
        metavar="KIND:WORKLOAD:PROCS[:ATTEMPTS]", help="inject a "
        "kill/hang/error fault into one group (resilience tests); repeatable")
    add("--obs-dir", metavar="DIR", help="write runtime-trace shards to "
        "DIR and merge them into DIR/sweep_trace.json (implies "
        "--supervised)")
    add("--progress", action="store_true", help="live stderr ticker "
        "(implies --supervised)")

    add = command("gaps", _run_gaps,
                  "optimality-gap scorecard against the exact solver")
    grid(add, " ".join(SCORECARD_WORKLOADS), " ".join(map(str, SCORECARD_PROCS)),
         " ".join(GAP_HEURISTICS), choices=GAP_HEURISTICS)
    add("--node-budget", type=_at_least(1), default=SCORECARD_NODE_BUDGET,
        metavar="N", help="branch-and-bound node budget per (instance, "
        f"objective) solve (default {SCORECARD_NODE_BUDGET})")

    add = command("trace", _run_trace, "one instrumented simulation, "
                  "exported as metrics JSON, Chrome trace or HTML report",
                  resolve=_resolve_trace)
    cell(add, "'paper' (default: the worked example at capacity 8, which "
              "reads no --procs, --heuristic or --fraction) or a workload key",
         "a workload's processor count (default 4)",
         "a workload's capacity as a share of TOT (default 0.5)")
    add("--metrics", nargs="?", const="metrics.json", metavar="PATH",
        help="write the metrics JSON to PATH (default metrics.json)")
    add("--trace-out", metavar="PATH", help="write a Chrome trace_event "
        "JSON (load at ui.perfetto.dev)")
    add("--report", metavar="PATH",
        help="write a standalone HTML telemetry report")

    add = command("check", _run_check, "conformance batch: the invariant "
                  "checker and the differential oracle on the worked "
                  "example and seeded random DAGs", resolve=_resolve_check)
    batch(add)
    add("--procs", type=int, metavar="P", help="processor count (default 3)")
    add("--fraction", type=float, help="capacity as a position between "
        "MIN_MEM (0) and TOT (1) (default 0.5)")
    add("--trace-out", metavar="PATH", help="write the first failing run's "
        "violation trace (load at ui.perfetto.dev)")

    add = command("analyze", _run_analyze, "static schedule sanitizer: the "
                  "check batch, or one workload, with no simulation",
                  resolve=_resolve_analyze)
    cell(add, "'paper' (default: the check batch, which reads no "
              "--heuristic or --bounds) or a workload key (one cell, which "
              "reads no --seed, --graphs or --fault)",
         "processor count (default 4 for a workload, 3 for the batch)",
         "a workload's capacity as a share of TOT; the batch's, a position "
         "between MIN_MEM (0) and TOT (1) (default 0.5)")
    batch(add)
    add("--format", default="text", choices=("text", "json", "sarif"),
        help="output format (sarif/json for CI annotation)")
    add("--out", metavar="PATH", help="write the report to PATH, not stdout")
    add("--strict", action="store_true", help="exit 1 on advisory "
        "(warning/info) findings too, not only on errors")
    add("--verify-ir", action="store_true", help="verify the compiled "
        "engine's lowering and MAP tables (SA5xx)")
    add("--bounds", action="store_true", default=None,
        help="run a workload's certified-bound pass (SA401-SA403)")

    command("validate", _run_validate,
            "the replication scorecard: every claim, checked")
    obs = top.add_parser("obs", help="observability artifacts",
                         allow_abbrev=False)
    add = command("merge", _run_obs_merge, "re-merge a sweep's runtime "
                  "trace", subs=obs.add_subparsers(
                      dest="action", required=True, metavar="action"))
    add("--obs-dir", required=True, metavar="DIR",
        help="the directory a 'sweep --obs-dir' wrote")
    add("--trace-out", metavar="PATH",
        help="output path (default DIR/sweep_trace.json)")
    command("list", _run_list, "list the commands")
    return parser


def commands(parser: argparse.ArgumentParser) -> dict:
    """``parser``'s command table: each command's name (``obs merge``
    for a nested one) with its subparser, in declaration order."""
    table = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                nested = commands(sub)
                table.update({f"{name} {k}": v for k, v in nested.items()}
                             or {name: sub})
    return table


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Parse ``argv`` and resolve the command's mode-dependent defaults.

    A usage error exits 2 through the command's own parser, so the
    message names the command: an unknown command, a flag the command
    or its mode does not read, a value out of range or a bad cell.
    """
    args, unread = build_parser().parse_known_args(argv)
    if unread:
        args.parser.error("unrecognized arguments: " + " ".join(unread))
    if args.resolve is not None:
        try:
            args.resolve(args)
        except ValueError as err:
            args.parser.error(str(err))
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except SystemExit as stop:
        # argparse's exit: 2 after a usage error (the commands' run-time
        # ones go through the same parser.error), 0 after --help.
        return stop.code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro list                # available experiments
    python -m repro table1             # one table
    python -m repro table2 --procs 4 8
    python -m repro figure7 --app lu
    python -m repro table8
    python -m repro example            # the Figure 2/3/5 walkthrough
    python -m repro all                # everything (a few minutes)
    python -m repro sweep --jobs 0 --metrics   # grid CSV + telemetry columns
    python -m repro sweep --check      # + invariant-violations column
    python -m repro sweep --jobs 4 --checkpoint ckpt/   # journal progress
    python -m repro sweep --jobs 4 --checkpoint ckpt/ --resume  # finish it
    python -m repro sweep --jobs 4 --obs-dir obs/ --progress  # traced sweep
    python -m repro sweep --heuristics rcp mpo dts etf tree  # wider line-up
    python -m repro obs merge --obs-dir obs/   # re-merge the sweep trace
    python -m repro gaps               # optimality-gap scorecard (exact solver)
    python -m repro gaps --workloads paper --node-budget 50000
    python -m repro trace --metrics metrics.json --trace-out trace.json \
        --report report.html           # one instrumented run, exported
    python -m repro check --seed 7     # conformance batch: invariants + oracle
    python -m repro check --fault overwrite --trace-out fail.json
    python -m repro analyze --seed 7   # static sanitizer, no simulation
    python -m repro analyze --fault overwrite --format sarif --out out.sarif
    python -m repro analyze --workload etree15 --heuristic rcp --verify-ir
    python -m repro analyze --strict   # advisory findings fail the run too
    python -m repro sweep --bounds     # + certified-bound columns
"""

from __future__ import annotations

import argparse
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

EXPERIMENTS = (
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "table8", "figure7",
)


def _paper_example_walkthrough() -> str:
    from .core import analyze_memory, dts_order, plan_maps
    from .core.dcg import build_dcg
    from .graph.paper_example import (
        paper_assignment,
        paper_example_graph,
        paper_placement,
        schedule_b,
        schedule_c,
    )

    g = paper_example_graph()
    pl = paper_placement()
    asg = paper_assignment(g, pl)
    lines = [f"Figure 2(a): {g.num_tasks} tasks, {g.num_objects} objects"]
    lines.append(f"MIN_MEM Fig2(b) = {analyze_memory(schedule_b(g)).min_mem} (paper: 9)")
    lines.append(f"MIN_MEM Fig2(c) = {analyze_memory(schedule_c(g)).min_mem} (paper: 8)")
    lines.append(
        "MIN_MEM DTS     = "
        f"{analyze_memory(dts_order(g, pl, asg)).min_mem} (paper: 7)"
    )
    dcg = build_dcg(g)
    lines.append(
        "DCG slices: " + " -> ".join(o[0] for o in dcg.comp_objects)
    )
    plan = plan_maps(schedule_c(g), 8)
    lines.append(f"MAPs under capacity 8: {plan.maps_per_proc} per processor")
    return "\n".join(lines)


def _render_example_svgs(out_dir: str) -> list[str]:
    """Write Gantt + memory SVGs of the paper example's three schedules."""
    import pathlib

    from .core import analyze_memory, dts_order, gantt
    from .core.viz import gantt_svg, memory_svg
    from .graph.paper_example import (
        paper_assignment,
        paper_example_graph,
        paper_placement,
        schedule_b,
        schedule_c,
    )

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    g = paper_example_graph()
    pl = paper_placement()
    asg = paper_assignment(g, pl)
    written = []
    for label, sched in (
        ("fig2b_rcp", schedule_b(g)),
        ("fig2c_mpo", schedule_c(g)),
        ("fig5_dts", dts_order(g, pl, asg)),
    ):
        p1 = out / f"{label}_gantt.svg"
        gantt_svg(gantt(sched), path=str(p1), label_tasks=True)
        p2 = out / f"{label}_memory.svg"
        memory_svg(analyze_memory(sched), path=str(p2), capacity=8)
        written += [str(p1), str(p2)]
    return written


def _parse_harness_faults(specs):
    """Parse repeated ``--harness-fault KIND:WORKLOAD:PROCS[:ATTEMPTS]``
    flags into a :class:`~repro.experiments.runtime.HarnessFaultSpec`.

    ``KIND`` is ``kill``, ``hang`` or ``error``; ``ATTEMPTS`` is a
    comma-separated list of 1-based attempt numbers or ``all`` (default
    ``1`` — the fault fires once and the retry succeeds).
    """
    from .experiments.runtime import HarnessFaultSpec

    groups = {"kill": [], "hang": [], "error": []}
    on_attempts = None
    for spec in specs:
        parts = spec.split(":")
        if len(parts) not in (3, 4) or parts[0] not in groups:
            raise ValueError(
                f"bad --harness-fault {spec!r}; expected "
                "KIND:WORKLOAD:PROCS[:ATTEMPTS] with KIND in kill/hang/error"
            )
        kind, workload = parts[0], parts[1]
        procs = int(parts[2])
        attempts = (1,)
        if len(parts) == 4:
            attempts = (
                () if parts[3] == "all"
                else tuple(int(a) for a in parts[3].split(","))
            )
        if on_attempts is None:
            on_attempts = attempts
        elif on_attempts != attempts:
            raise ValueError(
                "all --harness-fault flags must agree on ATTEMPTS"
            )
        groups[kind].append((workload, procs))
    return HarnessFaultSpec(
        kill=tuple(groups["kill"]),
        hang=tuple(groups["hang"]),
        error=tuple(groups["error"]),
        on_attempts=(1,) if on_attempts is None else on_attempts,
    )


def _require_cell(args) -> None:
    """Raise ``ValueError`` naming a bad ``--procs``, ``--fraction`` or
    ``--workload`` of ``trace``, ``analyze`` or ``check`` (the message
    :func:`main` prints before exiting 2)."""
    if args.experiment == "check" or (
            args.experiment == "analyze" and args.workload == "paper"):
        # The check/analyze batch's fraction is a position between
        # MIN_MEM and TOT.
        require_grid(args.procs or (), ())
        if not 0.0 <= args.fraction <= 1.0:
            raise ValueError(
                f"{args.experiment} --fraction is a position between "
                f"MIN_MEM (0) and TOT (1), got {args.fraction}"
            )
        return
    # --procs/--fraction pick the cell: the sweep's grid check.
    require_grid(args.procs or (), (args.fraction,))
    if args.workload != "paper":
        require_known("workload", (args.workload,),
                      ["paper", *ExperimentContext().known_workloads()])


def _resolve_workload(args):
    """Resolve ``--workload/--procs/--heuristic/--fraction`` into
    ``(spec, compiled, capacity, profile)``.

    The single place the CLI turns workload flags into a compiled
    schedule — shared by ``trace`` and ``analyze`` (and, through
    :func:`repro.conformance.check.batch_cases`, consistent with the
    batch the ``check`` command builds).
    """
    import math

    from .machine.simulator import CompiledSchedule

    if args.workload == "paper":
        from .graph.paper_example import schedule_c
        from .machine.spec import UNIT_MACHINE

        compiled = CompiledSchedule(schedule_c())
        return UNIT_MACHINE, compiled, 8, compiled.profile
    ctx = ExperimentContext()
    p = args.procs[0] if args.procs else 4
    prof = ctx.profile(args.workload, p, args.heuristic)
    capacity = int(math.floor(prof.tot * args.fraction))
    compiled = ctx.compiled(args.workload, p, args.heuristic)
    return ctx.spec, compiled, capacity, prof


def _run_trace(args) -> int:
    """One instrumented simulation; export metrics / Chrome trace / report."""
    from .machine.simulator import Simulator
    from .obs import html_report, to_json, write_chrome_trace

    spec, compiled, capacity, prof = _resolve_workload(args)
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
    wrote = False
    if args.metrics is not None:
        path = args.metrics or "metrics.json"
        to_json(res.metrics, path)
        print(f"wrote {path}")
        wrote = True
    if args.trace_out:
        write_chrome_trace(res, args.trace_out)
        print(f"wrote {args.trace_out} (open at ui.perfetto.dev)")
        wrote = True
    if args.report:
        html_report(res, args.report)
        print(f"wrote {args.report}")
        wrote = True
    if not wrote:
        print("(no --metrics/--trace-out/--report given; summary only)")
    return 0


def _run_check_cmd(args) -> int:
    """Conformance batch: invariant checking + differential oracle.

    Exit status is 0 iff every checked run is clean — so
    ``repro check --fault overwrite`` exits non-zero by design (the
    deliberately injected slot overwrite must be detected).
    """
    from .conformance import check_batch, fault_preset, write_violation_trace
    from .conformance.check import overwrite_demo

    faults = fault_preset(args.fault, seed=args.seed) if args.fault else None
    procs = args.procs[0] if args.procs else 3
    reports = check_batch(
        args.seed,
        graphs=args.graphs,
        procs=procs,
        faults=faults,
        fraction=args.fraction,
    )
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
    """Static schedule sanitizer: the same cases as ``check``, analyzed
    in O(plan) with no simulation.

    Exit codes (documented in ``docs/analysis.md``): 0 — every report
    clean of error-severity findings (advisories allowed); 1 — at least
    one error finding, or, under ``--strict``, at least one advisory
    (warning/info) finding; 2 — usage errors.  So
    ``repro analyze --fault overwrite`` exits 1 by design (the
    buggy-planner demo must be flagged with its SA3xx cycle witness).

    ``--verify-ir`` appends an IR-verifier report (SA5xx; see
    :mod:`repro.analysis.irverify`) over the workload's lowering and
    exec plan; ``--bounds`` runs the certified-bound pass
    (SA401-SA403) on the workload report.
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

    reports = []
    if args.workload != "paper":
        spec, compiled, capacity, prof = _resolve_workload(args)
        reports = [analyze_schedule(
            compiled.schedule,
            capacity=max(capacity, 1),
            profile=prof,
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
        faults = None
        if args.fault:
            from .conformance import fault_preset

            faults = fault_preset(args.fault, seed=args.seed)
        reports = analyze_batch(
            args.seed,
            graphs=args.graphs,
            procs=args.procs[0] if args.procs else 3,
            fraction=args.fraction,
            faults=faults,
        )
        if args.fault == "overwrite":
            # Same extra case as `check --fault overwrite`: organic
            # plans are self-throttling, the demo plan is not.
            reports.append(analyze_overwrite_demo())
        if args.verify_ir:
            # Verify the worked example's lowering alongside the batch.
            spec, compiled, capacity, _prof = _resolve_workload(args)
            reports.append(verify_report(
                compiled, capacity=capacity, spec=spec,
                label="paper/irverify",
            ))

    if args.format == "json":
        doc = json.dumps(to_json(reports), indent=2, sort_keys=True)
    elif args.format == "sarif":
        doc = json.dumps(to_sarif(reports), indent=2, sort_keys=True)
    else:
        doc = render_text(reports)
    out = args.out if args.out not in (None, ".") else None
    if out is not None:
        import pathlib

        target = pathlib.Path(out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(doc + "\n")
        print(f"wrote {target}")
    else:
        print(doc)
    clean = sum(1 for r in reports if r.ok)
    advisory = sum(1 for r in reports if r.ok and r.diagnostics)
    if args.format == "text" or out is not None:
        tail = f" ({advisory} with advisories)" if advisory else ""
        print(f"{clean}/{len(reports)} plans statically clean{tail}")
    if clean != len(reports):
        return 1
    if args.strict and advisory:
        return 1
    return 0


def run_experiment(name: str, ctx: ExperimentContext, args) -> str:
    procs = tuple(args.procs) if args.procs else None
    if name == "table1":
        return table1(ctx, procs=procs or (2, 4, 8, 16)).render()
    if name == "table2":
        return table2(ctx, procs=procs or (2, 4, 8, 16, 32)).render()
    if name == "table3":
        return table3(ctx, procs=procs or (2, 4, 8, 16, 32)).render()
    if name in ("table4", "table6", "table7"):
        fn = {"table4": table4, "table6": table6, "table7": table7}[name]
        out = []
        apps = (args.app,) if args.app else ("cholesky", "lu")
        for app in apps:
            out.append(fn(ctx, app, procs=procs or (2, 4, 8, 16, 32)).render())
        return "\n\n".join(out)
    if name == "table5":
        return table5(ctx, procs=procs or (2, 4, 8, 16, 32)).render()
    if name == "table8":
        return run_table8().render()
    if name == "figure7":
        apps = (args.app,) if args.app else ("cholesky", "lu")
        return "\n\n".join(
            run_figure7(ctx, app, procs=procs or (2, 4, 8, 16, 32)).render()
            for app in apps
        )
    raise ValueError(f"unknown experiment {name!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the evaluation of Fu & Yang, PPoPP 1997.",
    )
    parser.add_argument(
        "experiment",
        help="one of: " + ", ".join(EXPERIMENTS)
             + ", example, svg, gaps, list, all",
    )
    parser.add_argument(
        "action", nargs="?", default=None,
        help="subcommand of 'obs' (currently: merge)",
    )
    parser.add_argument("--app", choices=("cholesky", "lu"), default=None,
                        help="restrict comparison tables to one application")
    parser.add_argument("--procs", type=int, nargs="*", default=None,
                        help="processor counts to sweep")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the 'sweep' command "
                             "(0 = one per CPU; N > 1 runs under the "
                             "supervised executor; results are identical "
                             "to --jobs 1)")
    parser.add_argument("--out", default=".",
                        help="output directory for the 'svg' command")
    parser.add_argument("--metrics", nargs="?", const="", default=None,
                        metavar="PATH",
                        help="sweep: add per-cell telemetry columns to the "
                             "CSV; trace: write the metrics JSON to PATH "
                             "(default metrics.json)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="trace: write a Chrome trace_event JSON "
                             "(load at ui.perfetto.dev)")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="trace: write a standalone HTML telemetry report")
    parser.add_argument("--workload", default="paper",
                        help="trace: workload key ('paper' = the Figure 2 "
                             "example; else chol15/chol24/lu-goodwin)")
    parser.add_argument("--heuristic", default="mpo",
                        choices=("rcp", "mpo", "dts", "etf", "tree", "exact"),
                        help="trace/analyze: ordering heuristic")
    parser.add_argument("--heuristics", nargs="*", default=None,
                        metavar="NAME",
                        help="sweep: ordering heuristics of the grid "
                             "(default rcp mpo dts); gaps: scorecard "
                             "line-up (default rcp mpo dts etf tree)")
    parser.add_argument("--node-budget", type=int, default=None, metavar="N",
                        help="gaps: branch-and-bound node budget per "
                             "(instance, objective) solve (default 20000)")
    parser.add_argument("--fraction", type=float, default=0.5,
                        help="trace/check: memory capacity as a fraction of "
                             "TOT (check: position between MIN_MEM and TOT)")
    parser.add_argument("--check", action="store_true",
                        help="sweep: attach the invariant checker to every "
                             "cell and add a 'violations' column")
    parser.add_argument("--seed", type=int, default=0,
                        help="check: base seed of the random-DAG batch")
    parser.add_argument("--graphs", type=int, default=10,
                        help="check: number of seeded random DAGs")
    parser.add_argument("--fault", default=None,
                        choices=("delay", "jitter", "consume", "slow",
                                 "tighten", "overwrite"),
                        help="check/analyze: fault-injection preset to apply "
                             "(see docs/conformance.md; analyze uses only "
                             "its capacity knob plus the overwrite demo)")
    parser.add_argument("--format", default="text",
                        choices=("text", "json", "sarif"),
                        help="analyze: output format (sarif/json for CI "
                             "annotation; see docs/analysis.md)")
    parser.add_argument("--analyze", action="store_true",
                        help="sweep: statically analyze every cell and add "
                             "an 'analysis_errors' column")
    parser.add_argument("--strict", action="store_true",
                        help="analyze: exit 1 on advisory (warning/info) "
                             "findings too, not only on errors")
    parser.add_argument("--verify-ir", action="store_true",
                        help="analyze: verify the workload's compiled-engine "
                             "lowering and exec plan (SA5xx; see "
                             "docs/analysis.md)")
    parser.add_argument("--bounds", action="store_true",
                        help="sweep: add certified-bound columns (pt_bound, "
                             "mem_bound, *_gap) to the CSV; analyze: run the "
                             "certified-bound pass (SA401-SA403)")
    parser.add_argument("--engine", default="compiled",
                        choices=("compiled", "interpreted"),
                        help="sweep: simulator engine (default compiled, "
                             "the array-compiled engine); 'interpreted' "
                             "runs the reference oracle.  Both write the "
                             "same CSV bytes, observed cells (--metrics, "
                             "--check) included")
    parser.add_argument("--workloads", nargs="*", default=None,
                        metavar="KEY",
                        help="sweep: workload keys of the grid "
                             "(default chol15 lu-goodwin)")
    parser.add_argument("--supervised", action="store_true",
                        help="sweep: run under the fault-tolerant "
                             "supervisor (timeouts, retries, structured "
                             "failure records; see docs/resilience.md)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="sweep: per-group wall-clock timeout in "
                             "seconds (0 = never; implies --supervised)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="sweep: charged attempts per group before it "
                             "is recorded as failed (implies --supervised)")
    parser.add_argument("--checkpoint", default=None, metavar="DIR",
                        help="sweep: journal completed groups to DIR as "
                             "they finish (implies --supervised)")
    parser.add_argument("--resume", action="store_true",
                        help="sweep: replay groups already committed to "
                             "the --checkpoint journal and run only the "
                             "remainder (CSV identical to an "
                             "uninterrupted run)")
    parser.add_argument("--harness-fault", action="append", default=None,
                        metavar="KIND:WORKLOAD:PROCS[:ATTEMPTS]",
                        help="sweep: inject a deterministic harness fault "
                             "(kill/hang/error) into one group, for "
                             "resilience testing; repeatable")
    parser.add_argument("--obs-dir", default=None, metavar="DIR",
                        help="sweep: write runtime-trace shards to DIR and "
                             "merge them into DIR/sweep_trace.json on exit "
                             "(implies --supervised); obs merge: the "
                             "directory to merge")
    parser.add_argument("--progress", action="store_true",
                        help="sweep: live stderr ticker (done/running/"
                             "retrying/failed groups; implies --supervised)")
    args = parser.parse_args(argv)

    if args.experiment == "obs":
        if args.action != "merge":
            print("usage: repro obs merge --obs-dir DIR [--trace-out PATH]",
                  file=sys.stderr)
            return 2
        if not args.obs_dir:
            print("repro obs merge requires --obs-dir DIR", file=sys.stderr)
            return 2
        from .obs.sweep_trace import write_sweep_trace

        path = write_sweep_trace(args.obs_dir, args.trace_out)
        print(f"wrote {path} (open at ui.perfetto.dev)")
        return 0

    if args.experiment == "list":
        print("\n".join(
            EXPERIMENTS
            + ("example", "svg", "sweep", "gaps", "trace", "check",
               "analyze", "validate", "obs merge")
        ))
        return 0
    if args.experiment in ("trace", "analyze", "check"):
        try:
            _require_cell(args)
        except ValueError as err:
            print(err, file=sys.stderr)
            return 2
        run = {"trace": _run_trace, "analyze": _run_analyze,
               "check": _run_check_cmd}[args.experiment]
        return run(args)
    if args.experiment == "example":
        print(_paper_example_walkthrough())
        return 0
    if args.experiment == "svg":
        for path in _render_example_svgs(args.out):
            print(f"wrote {path}")
        return 0
    if args.experiment == "validate":
        from .experiments.validate import render_scorecard, validate

        claims = validate(ExperimentContext())
        print(render_scorecard(claims))
        return 0 if all(c.passed for c in claims) else 1
    if args.experiment == "gaps":
        from .experiments.tables import (
            SCORECARD_NODE_BUDGET,
            SCORECARD_PROCS,
            SCORECARD_WORKLOADS,
            gap_scorecard,
        )
        from .opt.gaps import GAP_HEURISTICS

        heuristics = tuple(args.heuristics) if args.heuristics else None
        if heuristics:
            bad = [h for h in heuristics if h not in GAP_HEURISTICS]
            if bad:
                print(
                    f"unknown heuristic(s) {bad}; "
                    f"choose from {list(GAP_HEURISTICS)}",
                    file=sys.stderr,
                )
                return 2
        try:
            card = gap_scorecard(
                ExperimentContext(),
                workloads=(
                    tuple(args.workloads) if args.workloads
                    else SCORECARD_WORKLOADS
                ),
                procs=tuple(args.procs) if args.procs else SCORECARD_PROCS,
                heuristics=heuristics,
                node_budget=(
                    args.node_budget if args.node_budget is not None
                    else SCORECARD_NODE_BUDGET
                ),
            )
        except KeyError as err:
            print(str(err).strip('"'), file=sys.stderr)
            return 2
        print(card.render())
        return 0
    if args.experiment == "sweep":
        import pathlib
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
        sweep_kw = {}
        if args.workloads:
            sweep_kw["workloads"] = tuple(args.workloads)
        if args.heuristics:
            sweep_kw["heuristics"] = tuple(args.heuristics)
        t0 = monotonic()
        try:
            records = full_sweep(
                ExperimentContext(),
                procs=tuple(args.procs) if args.procs else (2, 4, 8, 16, 32),
                jobs=args.jobs,
                metrics=args.metrics is not None,
                check=args.check,
                analyze=args.analyze,
                engine=args.engine,
                bounds=args.bounds,
                runtime=runtime,
                checkpoint=args.checkpoint,
                resume=args.resume,
                harness_faults=(
                    _parse_harness_faults(args.harness_fault)
                    if args.harness_fault else None
                ),
                obs_dir=args.obs_dir,
                progress=args.progress,
                **sweep_kw,
            )
        except (KeyError, ValueError) as err:
            # Bad grid or --harness-fault: surface the message (with
            # the choice listing) instead of a traceback.
            print(str(err).strip('"'), file=sys.stderr)
            return 2
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

    ctx = ExperimentContext()
    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
            return 2
        print(run_experiment(name, ctx, args))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

"""Command-line entry point: ``repro-experiments``.

Examples::

    # regenerate one figure or finding (or all) at its pinned run and
    # check its claim; stdout is benchmarks/results/figure08.txt or
    # benchmarks/results/victim_policy.txt
    repro-experiments --figure 8
    repro-experiments --figure victim_policy
    repro-experiments --figure all --workers 2

    # run a whole experiment with custom statistics
    repro-experiments --experiment exp3_finite --batches 20 --batch-time 60

    # everything in the paper (takes a while)
    repro-experiments --all

    # resilient long sweep: per-point budgets, retries, checkpointing;
    # re-running with --resume skips the points already on disk
    repro-experiments --experiment exp3_finite --batches 20 \
        --deadline 600 --stall-timeout 120 --retries 1 \
        --checkpoint ckpts --resume

    # the same sweep fanned out over every CPU core; results are
    # identical to --workers 1 for the same seed
    repro-experiments --experiment exp3_finite --batches 20 --workers 0

    # availability study: paper experiment under injected disk crashes
    repro-experiments --experiment exp6_disk_faults --quick
    repro-experiments --figure 8 --quick --inject disk_storm

    # resource-model ablations: the same paper experiment behind a
    # buffer pool, or with explicit object->disk placement
    repro-experiments --experiment exp7_buffered --quick
    repro-experiments --figure 8 --quick --resource-model buffered

    # workload-model ablations: the same paper experiment with open
    # Poisson arrivals, or with heavy-tailed think/size distributions
    repro-experiments --figure 8 --quick --workload-model open_poisson \
        --workload-spec rate=12
    repro-experiments --experiment exp10_heavy_tailed --quick

    # observability: stream per-point event traces and sample the
    # queue/utilization time-series every 2 simulated seconds
    repro-experiments --figure 8 --quick --trace --trace-out traces \
        --trace-kinds submit,restart,commit \
        --timeseries 2 --timeseries-csv fig8_ts.csv

    # one diagnostic run of a single algorithm: a one-point sweep
    repro-experiments --single blocking --mpl 50 --quick --trace

    # analytic surrogate: calibrate against simulation, then sweep
    # 113,400 evaluations through the calibrated model with
    # simulation spot-checks of the uncertain corners
    repro-experiments calibrate --quick --out calibration.json
    repro-experiments explore --coeffs calibration.json \
        --spot-checks 3 --quick --out exploration.json
"""

import argparse
import difflib
import sys

from repro.cc.registry import algorithm_names, commit_protocol_names
from repro.core import SimulationParameters
from repro.experiments.configs import ExperimentConfig, experiment_configs
from repro.experiments.errors import CheckpointMismatchError
from repro.experiments.figures import (
    FINDINGS,
    FigureBuilder,
    figures_of,
    registry_keys,
)
from repro.experiments.report import sweep_report
from repro.experiments.runner import (
    DEFAULT_RUN,
    QUICK_RUN,
    PointTrace,
    print_progress,
)
from repro.faults import scenario, scenario_names
from repro.obs.events import ALL_KINDS
from repro.resources import resource_model_names
from repro.workloads import workload_model_names


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the experiments of Agrawal, Carey & Livny, "
            "'Models for Studying Concurrency Control Performance' "
            "(SIGMOD 1985)."
        ),
    )
    what = parser.add_mutually_exclusive_group()
    what.add_argument(
        "command", nargs="?", choices=("calibrate", "explore"),
        metavar="COMMAND",
        help=(
            "analytic-surrogate commands: 'calibrate' fits the "
            "surrogate's correction coefficients against a seeded "
            "simulation grid and reports per-point divergence (exit 1 "
            "if the overall median exceeds 10%%); 'explore' sweeps a "
            "huge configuration space through the calibrated "
            "surrogate and spot-checks flagged points with real "
            "simulation"
        ),
    )
    what.add_argument(
        "--experiment",
        choices=sorted(experiment_configs()),
        help="run one experiment preset",
    )
    what.add_argument(
        "--figure",
        type=_figure_arg,
        choices=[*registry_keys(), "all"],
        metavar="N|NAME|all",
        help=(
            "regenerate one paper figure (3..21), one named finding "
            f"({', '.join(FINDINGS)}) "
            "or all of them; with no run flag, grid restriction or "
            "overlay, run each at its pinned run and check its claim "
            "(exit 1 on a failure)"
        ),
    )
    what.add_argument(
        "--all", action="store_true", help="run every experiment"
    )
    what.add_argument(
        "--single", metavar="ALGORITHM", default=None,
        help=(
            "one diagnostic run of a single algorithm on the paper's "
            "base (Table 2) parameters: a one-point sweep named "
            "'single' at --mpl (default 25); the overlays, resilience, "
            "observability and --csv flags apply as to any sweep"
        ),
    )
    what.add_argument(
        "--verify-checkpoint", metavar="PATH", default=None,
        help=(
            "audit a sweep file's integrity (a checkpoint or a "
            "saved sweep: header, per-line CRC32s) without "
            "modifying it and print its "
            "replications and params fingerprint, then exit: 0 = "
            "clean, 1 = corrupt (the report shows the salvageable "
            "prefix a --resume run would recover) or not resumable"
        ),
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="use the quick statistics profile (3 batches x 12 s)",
    )
    parser.add_argument("--batches", type=int, default=None)
    parser.add_argument("--batch-time", type=float, default=None)
    parser.add_argument("--warmup-batches", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--mpl", type=int, action="append", dest="mpls",
        help="restrict the mpl sweep (repeatable)",
    )
    parser.add_argument(
        "--algorithm", action="append", dest="algorithms",
        help="restrict the algorithms (repeatable)",
    )
    parser.add_argument(
        "--no-plots", action="store_true",
        help="tables only, no ASCII plots",
    )
    parser.add_argument(
        "--csv", metavar="PATH",
        help="also write the swept series to a CSV file",
    )
    resilience = parser.add_argument_group(
        "resilient execution",
        "supervise each (algorithm, mpl) point instead of letting one "
        "bad point kill the sweep",
    )
    resilience.add_argument(
        "--deadline", type=float, metavar="SECONDS", default=None,
        help="wall-clock budget per sweep point (checked each batch)",
    )
    resilience.add_argument(
        "--stall-timeout", type=float, metavar="SIM_SECONDS", default=None,
        help=(
            "fail a point after this many simulated seconds without a "
            "single commit (livelock watchdog)"
        ),
    )
    resilience.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="reseeded retries per failed point (default: 0)",
    )
    resilience.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help=(
            "flush each completed point to DIR/<experiment>.ckpt.jsonl "
            "as the sweep runs"
        ),
    )
    resilience.add_argument(
        "--resume", action="store_true",
        help=(
            "with --checkpoint: skip points already recorded and "
            "simulate only the missing ones"
        ),
    )
    resilience.add_argument(
        "--invariants", choices=["strict", "warn", "off", "spot"],
        default=None,
        help=(
            "audit every run's event stream with the runtime "
            "invariant checker: strict raises at the violating "
            "event, warn records violations in the diagnostics, off "
            "disables it; spot (sweeps only) audits the first point "
            "of each algorithm strictly and leaves the rest "
            "unchecked (default: the REPRO_INVARIANTS "
            "environment variable, else off); the checker replays "
            "committed transactions serially, so noop fails strict "
            "and spot by design"
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help=(
            "run sweep points on N worker processes (default: 1 = "
            "sequential; 0 = one per CPU core); results are identical "
            "for any worker count"
        ),
    )
    parser.add_argument(
        "--replications", type=int, default=1, metavar="R",
        help=(
            "measure every grid point R times; replication r is the "
            "r-th batches-sized segment of one deterministic "
            "trajectory, simulated once per point, so R=1 (the "
            "default) is the classic single-measurement sweep"
        ),
    )
    # --inject and --resource-model take registry names; they are NOT
    # argparse ``choices`` so a typo gets a did-you-mean error from
    # main() (matching --trace-kinds) instead of argparse's bare list.
    parser.add_argument(
        "--inject", default=None,
        metavar="SCENARIO",
        help=(
            "overlay a named fault scenario on every experiment "
            f"(choices: {', '.join(scenario_names())})"
        ),
    )
    parser.add_argument(
        "--resource-model", default=None,
        metavar="MODEL", dest="resource_model",
        help=(
            "overlay a resource model on every experiment "
            f"(choices: {', '.join(resource_model_names())}; "
            "default: each preset's own, usually classic)"
        ),
    )
    parser.add_argument(
        "--workload-model", default=None,
        metavar="MODEL", dest="workload_model",
        help=(
            "overlay a workload model on every experiment "
            f"(choices: {', '.join(workload_model_names())}; "
            "default: each preset's own, usually closed_classic)"
        ),
    )
    parser.add_argument(
        "--workload-spec", default=None,
        metavar="KEY=VALUE[,KEY=VALUE...]", dest="workload_spec",
        help=(
            "options for the workload model, e.g. "
            "'rate=12,process=mmpp' for open_poisson or "
            "'preset=web_sessions' for heavy_tailed "
            "(requires --workload-model)"
        ),
    )
    parser.add_argument(
        "--nodes", default=None, type=int, metavar="N",
        help=(
            "overlay a node count on every experiment (usually with "
            "--resource-model distributed; default: each preset's own)"
        ),
    )
    parser.add_argument(
        "--commit-protocol", default=None,
        metavar="PROTOCOL", dest="commit_protocol",
        help=(
            "overlay a commit protocol on every experiment "
            f"(choices: {', '.join(commit_protocol_names())}; "
            "default: each preset's own, usually single_site)"
        ),
    )
    surrogate = parser.add_argument_group(
        "analytic surrogate",
        "options for the 'calibrate' and 'explore' commands",
    )
    surrogate.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the calibration/exploration report JSON to PATH",
    )
    surrogate.add_argument(
        "--no-fit", action="store_true",
        help=(
            "calibrate: skip the coefficient fit and validate the "
            "baked-in defaults against the grid instead"
        ),
    )
    surrogate.add_argument(
        "--coeffs", metavar="PATH", default=None,
        help=(
            "explore: use the coefficients and calibration boundary "
            "from a saved calibration report instead of the baked-in "
            "defaults"
        ),
    )
    surrogate.add_argument(
        "--space", choices=("default", "smoke"), default="default",
        help=(
            "explore: the configuration space to sweep (smoke is a "
            "tiny CI-sized space; default covers 113,400 evaluations)"
        ),
    )
    surrogate.add_argument(
        "--uncertainty-threshold", type=float, default=1.0,
        metavar="X", dest="uncertainty_threshold",
        help=(
            "explore: flag predictions whose uncertainty score "
            "exceeds X (1.0 = the calibration boundary; default: 1.0)"
        ),
    )
    surrogate.add_argument(
        "--spot-checks", type=int, default=0, metavar="N",
        dest="spot_checks",
        help=(
            "explore: re-check the N most uncertain flagged points "
            "with real simulation (default: 0 = none)"
        ),
    )
    observability = parser.add_argument_group(
        "observability",
        "stream instrumentation-bus events and periodic time-series "
        "samples out of every simulated point",
    )
    observability.add_argument(
        "--trace", action="store_true",
        help=(
            "write each point's event stream to a JSONL file (one "
            "file per (algorithm, mpl) point)"
        ),
    )
    observability.add_argument(
        "--trace-out", metavar="DIR", default=None,
        help="directory for trace files (default: traces)",
    )
    observability.add_argument(
        "--trace-kinds", metavar="KINDS", default=None,
        help=(
            "comma-separated event kinds to trace (default: all; e.g. "
            "submit,block,restart,commit)"
        ),
    )
    observability.add_argument(
        "--timeseries", type=float, metavar="SIM_SECONDS", default=None,
        help=(
            "sample queue lengths, utilizations and cumulative counts "
            "every SIM_SECONDS of simulated time"
        ),
    )
    observability.add_argument(
        "--timeseries-csv", metavar="PATH", default=None,
        help="write the sampled time-series to a CSV file",
    )
    return parser


def _figure_arg(text):
    """A ``--figure`` value: a figure number, a finding name or ``all``."""
    return int(text) if text.isdigit() else text


def resolve_run(args, default=DEFAULT_RUN):
    """The run config the flags ask for (``default`` when none is set)."""
    run = QUICK_RUN if args.quick else DEFAULT_RUN
    changes = {}
    if args.batches is not None:
        changes["batches"] = args.batches
    if args.batch_time is not None:
        changes["batch_time"] = args.batch_time
    if args.warmup_batches is not None:
        changes["warmup_batches"] = args.warmup_batches
    if args.seed is not None:
        changes["seed"] = args.seed
    if not args.quick and not changes:
        return default
    return run.with_changes(**changes) if changes else run


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        for flag, value, default in (
            ("--out", args.out, None),
            ("--no-fit", args.no_fit, False),
            ("--coeffs", args.coeffs, None),
            ("--space", args.space, "default"),
            ("--uncertainty-threshold", args.uncertainty_threshold, 1.0),
            ("--spot-checks", args.spot_checks, 0),
        ):
            if value != default:
                parser.error(
                    f"{flag} requires the calibrate or explore command"
                )
    else:
        explore_only = (
            ("--coeffs", args.coeffs, None),
            ("--space", args.space, "default"),
            ("--uncertainty-threshold", args.uncertainty_threshold, 1.0),
            ("--spot-checks", args.spot_checks, 0),
        )
        if args.command == "calibrate":
            for flag, value, default in explore_only:
                if value != default:
                    parser.error(f"{flag} applies to explore only")
        elif args.no_fit:
            parser.error("--no-fit applies to calibrate only")
        if args.uncertainty_threshold <= 0:
            parser.error(
                f"--uncertainty-threshold must be > 0, got "
                f"{args.uncertainty_threshold}"
            )
        if args.spot_checks < 0:
            parser.error(
                f"--spot-checks must be >= 0, got {args.spot_checks}"
            )
    if args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    if args.deadline is not None and args.deadline <= 0:
        parser.error(f"--deadline must be > 0, got {args.deadline}")
    if args.stall_timeout is not None and args.stall_timeout <= 0:
        parser.error(
            f"--stall-timeout must be > 0, got {args.stall_timeout}"
        )
    if args.workers < 0:
        parser.error(f"--workers must be >= 0, got {args.workers}")
    if args.replications < 1:
        parser.error(
            f"--replications must be >= 1, got {args.replications}"
        )
    if isinstance(args.figure, str) and args.figure != "all":
        for flag, value in (
            ("--mpl", args.mpls), ("--algorithm", args.algorithms),
            ("--checkpoint", args.checkpoint), ("--trace", args.trace),
            ("--timeseries", args.timeseries), ("--csv", args.csv),
        ):
            if value:
                parser.error(
                    f"{flag} applies to figure sweeps; a finding's arms "
                    "are fixed runs"
                )
    if args.single is not None:
        if args.invariants == "spot":
            parser.error(
                "--invariants spot audits sweeps; use strict/warn/off "
                "with --single"
            )
        if args.replications != 1:
            parser.error(
                "--replications applies to sweeps; --single runs one "
                "simulation"
            )
        if args.algorithms:
            parser.error("--algorithm applies to sweeps; --single names "
                         "its algorithm")
        if args.mpls and len(args.mpls) > 1:
            parser.error("--single runs one point; give one --mpl")
        if args.single not in algorithm_names():
            parser.error(
                f"--single: unknown algorithm {args.single!r} "
                f"(choose from {', '.join(algorithm_names())})"
            )
    if args.trace_out is not None and not args.trace:
        parser.error("--trace-out requires --trace")
    if args.trace_kinds is not None and not args.trace:
        parser.error("--trace-kinds requires --trace")
    if args.trace_kinds is not None:
        unknown = [
            kind for kind in _parse_trace_kinds(args.trace_kinds) or ()
            if kind not in ALL_KINDS
        ]
        if unknown:
            parser.error(
                f"--trace-kinds: unknown event kind(s) "
                f"{', '.join(sorted(unknown))} "
                f"(choose from {', '.join(sorted(ALL_KINDS))})"
            )
    if args.timeseries is not None and args.timeseries <= 0:
        parser.error(f"--timeseries must be > 0, got {args.timeseries}")
    if args.timeseries_csv is not None and args.timeseries is None:
        parser.error("--timeseries-csv requires --timeseries")
    _validate_registry_name(
        parser, "--inject", args.inject, scenario_names(), "fault scenario"
    )
    _validate_registry_name(
        parser, "--resource-model", args.resource_model,
        resource_model_names(), "resource model",
    )
    _validate_registry_name(
        parser, "--workload-model", args.workload_model,
        workload_model_names(), "workload model",
    )
    _validate_registry_name(
        parser, "--commit-protocol", args.commit_protocol,
        commit_protocol_names(), "commit protocol",
    )
    if args.nodes is not None and args.nodes < 1:
        parser.error("--nodes must be >= 1")
    if args.workload_spec is not None and args.workload_model is None:
        parser.error("--workload-spec requires --workload-model")
    if args.workload_spec is not None:
        try:
            args.workload_spec = _parse_workload_spec(args.workload_spec)
        except ValueError as error:
            parser.error(f"--workload-spec: {error}")
    if args.workload_model is not None:
        # Probe the model against Table 2 parameters so option typos
        # (unknown keys, mmpp without rates, a missing trace file) are
        # usage errors before any simulation starts.
        from repro.workloads import create_workload_model

        probe = SimulationParameters.table2().with_changes(
            workload_model=args.workload_model,
            workload_spec=args.workload_spec,
        )
        try:
            create_workload_model(probe)
        except (ValueError, OSError) as error:
            parser.error(f"--workload-model: {error}")
    try:
        return _dispatch(args)
    except CheckpointMismatchError as error:
        print(f"repro-experiments: error: {error}", file=sys.stderr)
        print(
            "repro-experiments: the checkpoint was written by a "
            "different sweep; re-run with the matching options, or "
            "drop --resume to start fresh",
            file=sys.stderr,
        )
        return 2


def _validate_registry_name(parser, flag, value, choices, what):
    """Reject an unknown registry name with a did-you-mean error.

    Validated at parse time (like ``--trace-kinds``) so a typo is a
    usage error before any simulation starts, and the closest valid
    name is suggested when one is plausible.
    """
    if value is None or value in choices:
        return
    suggestion = difflib.get_close_matches(value, choices, n=1)
    did_you_mean = f" (did you mean {suggestion[0]!r}?)" if suggestion else ""
    parser.error(
        f"{flag}: unknown {what} {value!r}{did_you_mean} "
        f"(choose from {', '.join(choices)})"
    )


def _parse_workload_spec(text):
    """``"rate=12,process=mmpp"`` -> ``{"rate": 12, "process": "mmpp"}``.

    Values coerce to int, then float, then the booleans ``true``/
    ``false``, and stay strings otherwise; a colon-separated run of
    numbers (``rates=1:20``) becomes a tuple, for the mmpp list
    options.  The workload model itself validates the keys against its
    known options.
    """
    spec = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        key, sep, raw = token.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(
                f"expected KEY=VALUE, got {token!r}"
            )
        spec[key] = _coerce_spec_value(raw.strip())
    if not spec:
        raise ValueError("empty spec")
    return spec


def _coerce_spec_value(raw):
    if ":" in raw:
        parts = [_coerce_spec_scalar(p.strip()) for p in raw.split(":")]
        if all(isinstance(p, (int, float)) for p in parts):
            return tuple(parts)
    return _coerce_spec_scalar(raw)


def _coerce_spec_scalar(raw):
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            continue
    return raw


def _parse_trace_kinds(text):
    """``"submit, restart"`` -> ``("submit", "restart")`` (None = all)."""
    if text is None:
        return None
    kinds = tuple(k.strip() for k in text.split(",") if k.strip())
    return kinds or None


def _trace_option(args):
    """The run_sweep ``trace=`` value implied by the CLI flags."""
    if not args.trace:
        return None
    return PointTrace(
        directory=args.trace_out or "traces",
        kinds=_parse_trace_kinds(args.trace_kinds),
    )


def _verify_checkpoint(path):
    """The ``--verify-checkpoint`` command: print an audit, set the exit."""
    from repro.experiments.persistence import verify_checkpoint

    report = verify_checkpoint(path)
    print(f"checkpoint: {report['path']}")
    if report["format"] is not None:
        print(f"  format:        {report['format']}")
    if report["experiment_id"] is not None:
        print(f"  experiment:    {report['experiment_id']}")
    if report["fingerprint"] is not None:
        print(f"  replications:  {report['replications']}")
        print(f"  params:        sha256 {report['fingerprint']}")
    print(f"  point lines:   {report['point_lines']}")
    print(f"  valid points:  {report['valid_points']}")
    if report["ok"]:
        print("  status:        OK (every line intact)")
        return 0
    if report["format"] is None and report["first_corrupt_line"] is None:
        print(f"  status:        NOT RESUMABLE: {report['detail']}")
        return 1
    where = (
        f" at line {report['first_corrupt_line']}"
        if report["first_corrupt_line"] is not None else ""
    )
    print(f"  status:        CORRUPT{where}: {report['detail']}")
    if report["format"] is not None:
        print(
            f"  a --resume run would salvage the first "
            f"{report['valid_points']} point(s) and repair the file"
        )
    return 1


def _dispatch(args):
    if args.verify_checkpoint is not None:
        return _verify_checkpoint(args.verify_checkpoint)
    # With no run flag, each figure runs at its pinned run.
    run = resolve_run(
        args, default=None if args.figure is not None else DEFAULT_RUN
    )
    if args.command == "calibrate":
        return _run_calibrate(args, run)
    if args.command == "explore":
        return _run_explore(args, run)
    builder = FigureBuilder(
        run=run,
        mpls=args.mpls,
        algorithms=args.algorithms,
        progress=print_progress,
        inject=scenario(args.inject) if args.inject else None,
        resource_model=args.resource_model,
        workload_model=args.workload_model,
        workload_spec=args.workload_spec,
        nodes=args.nodes,
        commit_protocol=args.commit_protocol,
        checkpoint_dir=args.checkpoint,
        resume=args.resume,
        deadline=args.deadline,
        stall_timeout=args.stall_timeout,
        retries=args.retries,
        workers=args.workers,
        timeseries=args.timeseries,
        trace=_trace_option(args),
        invariants=args.invariants,
        replications=args.replications,
    )
    failed = False
    if args.single is not None:
        sweeps = [_run_single(args, builder)]
    elif args.figure is not None:
        sweeps, failed = _reproduce_figures(args, builder)
    elif args.experiment is not None or args.all:
        experiment_ids = (
            [args.experiment] if args.experiment is not None
            else sorted(experiment_configs())
        )
        sweeps = []
        for experiment_id in experiment_ids:
            sweep = builder.sweep_for(experiment_id)
            sweeps.append(sweep)
            print(sweep_report(
                sweep, with_plots=not args.no_plots,
                figures=figures_of(experiment_id),
            ))
            print()
    else:
        build_parser().print_help()
        return 2
    if args.csv:
        _export_csv(sweeps, args.csv)
    if args.timeseries_csv:
        _export_timeseries_csv(sweeps, args.timeseries_csv)
    # Partial results and failed claims exit 1 so schedulers notice.
    complete = all(sweep.complete for sweep in sweeps)
    return 0 if complete and not failed else 1


def _reproduce_figures(args, builder):
    """``--figure N|NAME|all``: print each entry's table text, check it.

    The pinned reproduction (see :meth:`FigureBuilder.reproduce`)
    prints text byte-identical to ``benchmarks/results/figureNN.txt``
    or ``benchmarks/results/NAME.txt`` and writes each entry's claim
    and bounds-oracle verdict to stderr. Other runs are not checked.
    Returns the distinct sweeps and whether any check failed.
    """
    keys = registry_keys() if args.figure == "all" else [args.figure]
    sweeps = {}
    failed = False
    for key in keys:
        reproduction = builder.reproduce(key, with_plots=not args.no_plots)
        print(reproduction.text, end="", flush=True)
        data = reproduction.data
        if isinstance(key, int):
            name, runs = f"figure {key}", f"{len(data.sweep.results)} points"
            sweeps[data.experiment_id] = data.sweep
        else:
            name, runs = key, f"{len(data.arms)} arms"
        if reproduction.failures is None:
            print(
                f"{name}: claim not checked: not the pinned reproduction",
                file=sys.stderr,
            )
        elif reproduction.failures:
            failed = True
            for message in reproduction.failures:
                print(f"FAILED {message}", file=sys.stderr)
        else:
            print(
                f"{name}: claim holds; all {runs} within the operational "
                "bounds",
                file=sys.stderr,
            )
    return list(sweeps.values()), failed


#: The calibration acceptance gate: overall median absolute relative
#: error of the calibrated surrogate on the grid.
CALIBRATION_GATE = 0.10


def _run_calibrate(args, run):
    """The ``calibrate`` command: fit, validate, report, gate."""
    from repro.analytic.calibrate import run_calibration

    report = run_calibration(
        run=run, fit=not args.no_fit, progress=print_progress,
        workers=args.workers,
    )
    mode = "validated baked-in" if args.no_fit else "fitted"
    print(f"calibration ({mode} coefficients, seed {report.seed}):")
    for algorithm in sorted(report.coefficients):
        if not report.points_for(algorithm):
            continue
        coeffs = report.coefficients[algorithm]
        divergence = report.divergence(algorithm)
        print(
            f"  {algorithm:18s} alpha={coeffs.alpha:.6f} "
            f"beta={coeffs.beta:.6f}  |err| median="
            f"{divergence.median:.1%} max={divergence.max:.1%} "
            f"({divergence.count} points)"
        )
    overall = report.divergence()
    print(
        f"  overall            |err| median={overall.median:.1%} "
        f"max={overall.max:.1%} ({overall.count} points)"
    )
    print(f"  calibration boundary: contention index {report.max_index:g}")
    if args.out:
        report.save(args.out)
        print(f"[wrote calibration report to {args.out}]", file=sys.stderr)
    if overall.median > CALIBRATION_GATE:
        print(
            f"calibration gate FAILED: median {overall.median:.1%} > "
            f"{CALIBRATION_GATE:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_explore(args, run):
    """The ``explore`` command: surrogate sweep + simulation spot-checks."""
    from repro.analytic.calibrate import CalibrationReport
    from repro.analytic.explore import (
        default_space,
        explore,
        smoke_space,
    )

    coeffs = max_index = None
    if args.coeffs:
        calibration = CalibrationReport.load(args.coeffs)
        coeffs = calibration.coefficients
        max_index = calibration.max_index
    space = smoke_space() if args.space == "smoke" else default_space()
    report = explore(
        space=space,
        coeffs=coeffs,
        max_index=max_index,
        threshold=args.uncertainty_threshold,
        spot_check_budget=args.spot_checks,
        run=run,
        progress=print_progress,
        workers=args.workers,
    )
    print(report.summary())
    if args.out:
        report.save(args.out)
        print(f"[wrote exploration report to {args.out}]", file=sys.stderr)
    return 0


def _run_single(args, builder):
    """One diagnostic run of one algorithm (the ``--single`` command).

    A one-point sweep of an experiment named ``single`` on the paper's
    Table 2 parameters, run by the same builder as every other sweep,
    so overlays, supervision, checkpoints and observers apply as they
    do to any sweep point: the trace lands in
    ``single.<alg>.mpl<NNN>.jsonl``. Prints the point's result line
    and whole-run counts (a failed point is reported by the sweep's
    progress instead) and returns the sweep.
    """
    mpl = args.mpls[0] if args.mpls else 25
    sweep = builder.sweep(ExperimentConfig(
        experiment_id="single", title=f"--single {args.single}",
        params=SimulationParameters.table2(mpl=mpl),
        algorithms=(args.single,), mpls=(mpl,),
    ))
    result = sweep.results.get((args.single, mpl))
    if result is None:
        return sweep
    print(result.describe())
    totals = result.totals
    commits = totals.get("commits", 0)
    if commits:
        print(
            f"whole run: commits={commits}  "
            f"blocks/commit={totals.get('blocks', 0) / commits:.2f}  "
            f"restarts/commit={totals.get('restarts', 0) / commits:.2f}"
        )
    diagnostics = result.diagnostics or {}
    if "trace" in diagnostics:
        trace = diagnostics["trace"]
        print(
            f"[trace: {trace['events']} events -> {trace['path']}]",
            file=sys.stderr,
        )
    if "timeseries" in diagnostics:
        samples = len(diagnostics["timeseries"]["series"]["time"])
        print(
            f"[timeseries: {samples} samples at "
            f"{args.timeseries:g}s interval]",
            file=sys.stderr,
        )
    return sweep


def _export_csv(sweeps, path):
    from repro.experiments.export import write_csv

    total = write_csv(sweeps, path)
    print(f"[wrote {total} rows to {path}]", file=sys.stderr)


def _export_timeseries_csv(sweeps, path):
    from repro.experiments.export import write_timeseries_csv

    total = write_timeseries_csv(sweeps, path)
    print(f"[wrote {total} time-series rows to {path}]", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

"""ASCII rendering of experiment results: tables and line plots.

The paper presents its results as throughput/utilization/response-time
curves over the multiprogramming level; these helpers render the same
series as fixed-width tables and quick terminal plots so every figure
can be "looked at" without matplotlib (which is unavailable offline).
"""

#: Display names for output variables, matching the paper's axis labels.
METRIC_LABELS = {
    "throughput": "Throughput (transactions/second)",
    "response_time": "Mean Response Time (seconds)",
    "response_time_std": "Std. Dev. of Response Time (seconds)",
    "block_ratio": "Blocked / Commit (block ratio)",
    "restart_ratio": "Restarts / Commit (restart ratio)",
    "disk_util": "Total Disk Utilization",
    "disk_util_useful": "Useful Disk Utilization",
    "cpu_util": "Total CPU Utilization",
    "cpu_util_useful": "Useful CPU Utilization",
    "avg_active": "Average Number of Active Transactions",
    "avg_ready_queue": "Average Ready-Queue Length",
    "commits": "Commits per Batch",
}


def metric_label(metric):
    return METRIC_LABELS.get(metric, metric)


def format_table(sweep, metric, with_ci=False):
    """A fixed-width table: rows = mpl, columns = algorithms."""
    algorithms = sweep.algorithms()
    mpls = sweep.mpls()
    width = 22 if with_ci else 12
    header = "mpl".rjust(5) + "".join(
        alg.rjust(width) for alg in algorithms
    )
    lines = [metric_label(metric), header, "-" * len(header)]
    for mpl in mpls:
        cells = []
        for algorithm in algorithms:
            result = sweep.results.get((algorithm, mpl))
            if result is None:
                cells.append("-".rjust(width))
                continue
            if with_ci:
                ci = result.interval(metric)
                cells.append(
                    f"{ci.mean:9.3f} ±{ci.half_width:6.3f}".rjust(width)
                )
            else:
                cells.append(f"{result.mean(metric):12.3f}")
        lines.append(f"{mpl:5d}" + "".join(cells))
    return "\n".join(lines)


def ascii_plot(sweep, metric, height=14, width=64):
    """A rough terminal line plot of ``metric`` vs mpl, one mark per
    algorithm (first letter of the algorithm's name, uppercased; ``*``
    where series overlap)."""
    algorithms = sweep.algorithms()
    mpls = sweep.mpls()
    if not algorithms or not mpls:
        return "(no data)"
    series = {
        alg: dict(
            (mpl, value) for mpl, value, _ in sweep.series(metric, alg)
        )
        for alg in algorithms
    }
    values = [
        value for per_alg in series.values() for value in per_alg.values()
    ]
    top = max(values) if values else 1.0
    if top <= 0.0:
        top = 1.0
    grid = [[" "] * width for _ in range(height)]
    x_positions = {
        mpl: int(round(index * (width - 1) / max(1, len(mpls) - 1)))
        for index, mpl in enumerate(mpls)
    }
    for alg in algorithms:
        mark = alg[0].upper()
        for mpl, value in series[alg].items():
            x = x_positions[mpl]
            y = height - 1 - int(round((value / top) * (height - 1)))
            y = min(max(y, 0), height - 1)
            grid[y][x] = "*" if grid[y][x] not in (" ", mark) else mark
    axis = "+" + "-" * width
    labels = " " * 1 + "".join(
        str(mpl).ljust(
            (x_positions[mpls[i + 1]] - x_positions[mpl])
            if i + 1 < len(mpls) else width - x_positions[mpl]
        )
        for i, mpl in enumerate(mpls)
    )
    legend = "  ".join(f"{alg[0].upper()}={alg}" for alg in algorithms)
    lines = [f"{metric_label(metric)}   (max={top:.3f})"]
    lines += ["|" + "".join(row) for row in grid]
    lines.append(axis)
    lines.append(labels)
    lines.append(legend)
    return "\n".join(lines)


def conflict_ratio_table(sweep):
    """Paper-style conflict diagnostics: blocks and restarts per commit.

    The batch-means tables above report per-batch *means*; this table
    reports the whole-run ratios from each point's cumulative totals
    (warmup included), which is how the paper discusses its blocking
    and restart behavior ("the blocking algorithm ... blocked roughly
    N times per commit").  Points whose totals are unavailable (e.g. a
    sweep document saved before totals existed) render as ``-``.
    """
    algorithms = sweep.algorithms()
    mpls = sweep.mpls()
    width = 20
    header = "mpl".rjust(5) + "".join(
        alg.rjust(width) for alg in algorithms
    )
    lines = [
        "Conflict ratios (whole run): blocks/commit  restarts/commit",
        header,
        "-" * len(header),
    ]
    for mpl in mpls:
        cells = []
        for algorithm in algorithms:
            result = sweep.results.get((algorithm, mpl))
            totals = result.totals if result is not None else {}
            commits = totals.get("commits")
            if not commits:
                cells.append("-".rjust(width))
                continue
            blocks = totals.get("blocks", 0) / commits
            restarts = totals.get("restarts", 0) / commits
            cells.append(f"{blocks:8.2f}  {restarts:8.2f}".rjust(width))
        lines.append(f"{mpl:5d}" + "".join(cells))
    return "\n".join(lines)


def buffer_hit_table(sweep):
    """Buffer-pool diagnostics: whole-run hit ratio per point.

    Rendered only for sweeps whose points carry buffer statistics in
    their totals (the ``buffered`` resource model); returns None
    otherwise so classic reports are unchanged.
    """
    algorithms = sweep.algorithms()
    mpls = sweep.mpls()
    if not any(
        (result.totals or {}).get("buffer")
        for result in sweep.results.values()
    ):
        return None
    width = 20
    header = "mpl".rjust(5) + "".join(
        alg.rjust(width) for alg in algorithms
    )
    lines = [
        "Buffer pool (whole run): hit ratio  (hits/probes)",
        header,
        "-" * len(header),
    ]
    for mpl in mpls:
        cells = []
        for algorithm in algorithms:
            result = sweep.results.get((algorithm, mpl))
            totals = result.totals if result is not None else {}
            buffer = totals.get("buffer") or {}
            hits = buffer.get("hits", 0)
            misses = buffer.get("misses", 0)
            probes = hits + misses
            if not probes:
                cells.append("-".rjust(width))
                continue
            cells.append(
                f"{hits / probes:6.1%}  ({hits}/{probes})".rjust(width)
            )
        lines.append(f"{mpl:5d}" + "".join(cells))
    return "\n".join(lines)


def _resource_model_line(sweep):
    """One-line resource-model label for the report header (or None)."""
    params = getattr(sweep.config, "params", None)
    model = getattr(params, "resource_model", "classic")
    if model == "classic":
        return None
    detail = ""
    if model == "buffered":
        if params.buffer_hit_ratio is not None:
            detail = f" (fixed hit ratio {params.buffer_hit_ratio})"
        else:
            capacity = (
                params.buffer_capacity
                if params.buffer_capacity is not None
                else max(1, params.db_size // 10)
            )
            detail = f" (LRU, {capacity} pages)"
    elif model == "skewed_disks":
        detail = f" ({params.disk_placement} placement)"
    return f"[resource model: {model}{detail}]"


def sweep_report(sweep, with_plots=True, figures=()):
    """Full textual report of one experiment sweep: a pure function of
    its results. ``figures`` names the paper figures it regenerates."""
    config = sweep.config
    lines = ["=" * 72, config.title]
    if figures:
        lines.append(
            "(regenerates paper figure(s) "
            f"{', '.join(map(str, figures))})"
        )
    lines.append("=" * 72)
    model_line = _resource_model_line(sweep)
    if model_line:
        lines.append(model_line)
    if config.notes:
        lines.append(config.notes)
        lines.append("")
    for metric in config.metrics:
        lines.append(format_table(sweep, metric, with_ci=True))
        lines.append("")
        if with_plots:
            lines.append(ascii_plot(sweep, metric))
            lines.append("")
    lines.append(conflict_ratio_table(sweep))
    lines.append("")
    buffer_table = buffer_hit_table(sweep)
    if buffer_table is not None:
        lines.append(buffer_table)
        lines.append("")
    failed = sweep.failed_points()
    if failed:
        lines.append("FAILED POINTS (excluded from tables above):")
        for algorithm, mpl in failed:
            status = sweep.status(algorithm, mpl)
            lines.append(
                f"  {algorithm} mpl={mpl}: {status.error} "
                f"(after {status.attempts} attempt(s))"
            )
        lines.append("")
    lines.append(
        f"[swept {len(sweep.results)} configurations; "
        f"{sweep.run.batches} batches x {sweep.run.batch_time:.0f}s]"
    )
    return "\n".join(lines)

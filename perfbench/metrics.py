"""Metric definitions and their computation from passes and traces.

``END_TO_END`` and ``PER_LAYER`` are the metrics ``BENCHMARK.json``
declares, with the same names, units and directions; a test keeps the
two in step.
"""

from perfbench.tracing import (
    ANALYTIC,
    CC,
    CC_REQUESTS,
    DES,
    EXPERIMENTS,
    LAYERS,
    OBS,
    PROTOCOL,
    RESOURCES,
    STATS,
    WORKLOADS,
)

#: (name, unit, better, bound, meaning) of every end-to-end metric.
END_TO_END = (
    ("pass_cost_ref", "ref", "lower", 0.25,
     "a pass's host time in reference-kernel units"),
    ("op_cost_mref", "mref", "lower", 0.25,
     "pass cost per delivered commit (per evaluation on explore)"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident memory before the check pass"),
    ("setup_s", "s", "lower", 0.25,
     "median of child processes importing and building inputs, "
     "at the reference speed"),
)

#: (name, unit, better) of every per-layer metric.
PER_LAYER = (
    ("des.events", "count", "lower"),
    ("des.kernel_self_s", "s", "lower"),
    ("des.ns_per_event", "ns", "lower"),
    ("cc.requests", "count", "lower"),
    ("cc.self_s", "s", "lower"),
    ("cc.us_per_request", "us", "lower"),
    ("cc.blocks_per_commit", "ratio", "lower"),
    ("cc.restarts_per_commit", "ratio", "lower"),
    ("cc.commit_ratio", "ratio", "higher"),
    ("cc.protocol_calls", "count", "lower"),
    ("cc.protocol_self_s", "s", "lower"),
    ("resources.calls", "count", "lower"),
    ("resources.self_s", "s", "lower"),
    ("resources.disk_util", "ratio", "higher"),
    ("resources.useful_disk_fraction", "ratio", "higher"),
    ("resources.buffer_hit_ratio", "ratio", "higher"),
    ("resources.msgs_per_commit", "ratio", "lower"),
    ("workloads.tx_generated", "count", "higher"),
    ("workloads.self_s", "s", "lower"),
    ("workloads.us_per_tx", "us", "lower"),
    ("obs.emits", "count", "lower"),
    ("obs.self_s", "s", "lower"),
    ("stats.batches_recorded", "count", "lower"),
    ("stats.self_s", "s", "lower"),
    ("experiments.sim_runs", "count", "lower"),
    ("experiments.sim_s_executed", "s", "lower"),
    ("experiments.sim_s_delivered", "s", "higher"),
    ("experiments.overhead_s", "s", "lower"),
    ("analytic.evaluations", "count", "higher"),
    ("analytic.self_s", "s", "lower"),
    ("analytic.us_per_eval", "us", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
NOTES = {name: meaning for name, _, _, _, meaning in END_TO_END}


def _ratio(numerator, denominator, scale=1.0):
    return scale * numerator / denominator if denominator else 0.0


def model_counters(models):
    """Exact counts summed over finished models.

    Events are read from the environment's event-id sequence (events
    scheduled) less those still queued when the model stopped.
    """
    totals = dict.fromkeys((
        "events", "sim_s", "commits", "restarts", "blocks", "generated",
        "disk_busy", "disk_capacity_s", "disk_useful", "disk_wasted",
        "buffer_hits", "buffer_misses", "messages",
    ), 0)
    for model in models:
        env = model.env
        physical = model.physical
        metrics = model.metrics
        disk = physical.disk_tracker
        totals["events"] += env._eid() - len(env._queue)
        totals["sim_s"] += env.now
        totals["commits"] += metrics.commits.total
        totals["restarts"] += metrics.restarts.total
        totals["blocks"] += metrics.blocks.total
        totals["generated"] += model.workload.generated
        if disk.capacity != float("inf"):
            totals["disk_busy"] += disk.busy_area()
            totals["disk_capacity_s"] += disk.capacity * env.now
        totals["disk_useful"] += disk.useful_time
        totals["disk_wasted"] += disk.wasted_time
        buffer = physical.buffer_summary()
        if buffer is not None:
            totals["buffer_hits"] += buffer["hits"]
            totals["buffer_misses"] += buffer["misses"]
        totals["messages"] += physical.messages_sent
    return totals


def layer_metrics(tracer, own, wall_s, outcome):
    """Every per-layer metric but the overhead, for the traced pass.

    ``own`` is :meth:`~perfbench.tracing.Tracer.self_seconds` of the
    pass that ``tracer`` holds, and ``wall_s`` that pass's wall time.
    """
    calls = tracer.calls_by_name()
    layer_calls = tracer.layer_calls()
    counts = model_counters(tracer.models)
    commits = counts["commits"]
    requests = sum(calls.get(("cc", name), 0) for name in CC_REQUESTS)
    evaluations = calls.get(("analytic", "surrogate_prediction"), 0)
    return {
        "des.events": counts["events"],
        "des.kernel_self_s": own[DES],
        "des.ns_per_event": _ratio(own[DES], counts["events"], 1e9),
        "cc.requests": requests,
        "cc.self_s": own[CC],
        "cc.us_per_request": _ratio(own[CC], requests, 1e6),
        "cc.blocks_per_commit": _ratio(counts["blocks"], commits),
        "cc.restarts_per_commit": _ratio(counts["restarts"], commits),
        "cc.commit_ratio": _ratio(commits, commits + counts["restarts"]),
        "cc.protocol_calls": layer_calls[PROTOCOL],
        "cc.protocol_self_s": own[PROTOCOL],
        "resources.calls": layer_calls[RESOURCES],
        "resources.self_s": own[RESOURCES],
        "resources.disk_util": _ratio(
            counts["disk_busy"], counts["disk_capacity_s"]),
        "resources.useful_disk_fraction": _ratio(
            counts["disk_useful"],
            counts["disk_useful"] + counts["disk_wasted"]),
        "resources.buffer_hit_ratio": _ratio(
            counts["buffer_hits"],
            counts["buffer_hits"] + counts["buffer_misses"]),
        "resources.msgs_per_commit": _ratio(counts["messages"], commits),
        "workloads.tx_generated": counts["generated"],
        "workloads.self_s": own[WORKLOADS],
        "workloads.us_per_tx": _ratio(
            own[WORKLOADS], counts["generated"], 1e6),
        "obs.emits": layer_calls[OBS],
        "obs.self_s": own[OBS],
        "stats.batches_recorded": layer_calls[STATS],
        "stats.self_s": own[STATS],
        "experiments.sim_runs": (
            calls.get(("des", "run_simulation"), 0)
            + calls.get(("des", "run_point_replications"), 0)
        ),
        "experiments.sim_s_executed": counts["sim_s"],
        "experiments.sim_s_delivered": outcome.sim_s if outcome else 0.0,
        "experiments.overhead_s": own[EXPERIMENTS],
        "analytic.evaluations": evaluations,
        "analytic.self_s": own[ANALYTIC],
        "analytic.us_per_eval": _ratio(own[ANALYTIC], evaluations, 1e6),
        "trace.wall_s": wall_s,
        "trace.spans": len(tracer.layer),
    }


def layer_table(tracer, own, wall_s):
    """Rows of (layer, self seconds, share of wall, calls); shares sum to 1."""
    layer_calls = tracer.layer_calls()
    return [
        {
            "layer": "des+core" if layer == DES else name,
            "self_s": own[layer],
            "share": own[layer] / wall_s if wall_s else 0.0,
            "calls": layer_calls[layer],
        }
        for layer, name in enumerate(LAYERS)
    ]


def named_views(workload, outcome, wall_s, setup_s, rss_mb, ledger):
    """The workload-specific figures, as (name, value, unit, note) rows.

    ``host_s_per_sim_s``, ``host_ms_per_commit``, ``sweep_wall_s`` and
    ``surrogate_evals_per_s`` apply to some workloads only (None where
    they do not), so they are printed here rather than gated.
    """
    simulated = outcome is not None and outcome.sim_s > 0
    commits = outcome.commits if outcome is not None else 0
    evaluations = outcome.evaluations if outcome is not None else 0
    return [
        ("pass_wall_s", wall_s, "s",
         "fastest time of each piece of a pass, summed"),
        ("host_s_per_sim_s", wall_s / outcome.sim_s if simulated else None,
         "s/s", "pass wall / delivered simulated seconds"),
        ("host_ms_per_commit",
         1e3 * wall_s / commits if commits else None, "ms",
         "pass wall / delivered commits"),
        ("sweep_wall_s",
         wall_s if workload.name == "paper_sweep" else None, "s",
         "one run_sweep call, fastest pieces"),
        ("surrogate_evals_per_s",
         evaluations / wall_s if evaluations else None, "1/s",
         "explore evaluations per second"),
        ("setup_s", setup_s, "s", "median set-up"),
        ("peak_rss_mb", rss_mb, "MB", ""),
        ("failed_fraction", _ratio(ledger.failed, ledger.attempted),
         "ratio", f"{ledger.failed} of {ledger.attempted} operations"),
    ]

"""Top-level simulation driver: batch-means runs producing results.

This is the library's main entry point::

    from repro import SimulationParameters, RunConfig, run_simulation

    params = SimulationParameters.table2(mpl=25)
    result = run_simulation(params, algorithm="blocking",
                            run=RunConfig(batches=20, batch_time=30.0))
    print(result.mean("throughput"), result.interval("throughput"))

Every driver steps one batch loop and assembles its results one way:
:func:`run_point_replications` carves a point's replications from one
trajectory, :func:`run_simulation` is its one-replication case, and
:func:`run_until_precision` differs only in its stopping rule.
"""

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.engine import SystemModel
from repro.core.params import RunConfig, SimulationParameters
from repro.obs.invariants import InvariantChecker, resolve_invariant_mode
from repro.stats import BatchMeansAnalyzer, assess_stability

__all__ = [
    "SimulationResult",
    "run_point_replications",
    "run_simulation",
    "run_until_precision",
]


def _collect_totals(model):
    """Cumulative whole-run totals, as of the model's current time."""
    totals = {
        "commits": model.metrics.commits.total,
        "restarts": model.metrics.restarts.total,
        "blocks": model.metrics.blocks.total,
        "restart_reasons": dict(model.metrics.restart_reasons),
        "transactions_generated": model.workload.generated,
        "simulated_time": model.env.now,
        "response_time_overall_mean": model.metrics.response_times.mean,
        "response_time_overall_std": model.metrics.response_times.std,
        "response_time_p50": model.metrics.response_p50.value,
        "response_time_p95": model.metrics.response_p95.value,
        "per_class": model.metrics.per_class_summary(model.env.now),
    }
    if model.fault_injector is not None:
        totals["faults"] = model.fault_injector.summary()
    # Models without a buffer pool report None and add no key, which
    # keeps classic/infinite totals byte-identical to pre-registry runs.
    buffer = model.physical.buffer_summary()
    if buffer is not None:
        totals["buffer"] = buffer
    # Network accounting only exists once a message actually crossed
    # nodes — single-site runs (and one-node distributed runs) add no
    # key, which the N=1 golden-parity suite depends on.
    network = model.physical.network_summary()
    if network is not None:
        totals["network"] = network
    # Same conditional-key idiom for the workload tier: only
    # open-system models add arrival accounting and the stability
    # verdict, so closed_classic totals keep their exact byte layout.
    workload_model = model.workload_model
    if workload_model.open_system:
        stability = assess_stability(
            model.metrics.submissions.total,
            model.metrics.commits.total,
            model.env.now,
            model.mpl_limit,
        )
        open_totals = stability.as_dict()
        extra = workload_model.summary(model)
        if extra is not None:
            open_totals.update(extra)
        totals["open_system"] = open_totals
    return totals


@dataclass
class SimulationResult:
    """Everything measured by one simulation run."""

    algorithm: str
    params: SimulationParameters
    run: RunConfig
    analyzer: BatchMeansAnalyzer
    #: Cumulative totals over the whole run (including warmup).
    totals: Dict[str, Any] = field(default_factory=dict)
    #: Optional per-run observability payload (e.g. the time-series
    #: sampled by the sweep runner). Plain JSON-serializable data; None
    #: when no diagnostics were requested, so summaries are unchanged.
    diagnostics: Optional[Dict[str, Any]] = None

    def mean(self, name):
        """Grand mean of a per-batch output variable."""
        return self.analyzer.mean(name)

    def interval(self, name):
        """Confidence interval of a per-batch output variable."""
        return self.analyzer.interval(name)

    @property
    def throughput(self):
        return self.mean("throughput")

    @property
    def response_time(self):
        return self.mean("response_time")

    def summary(self):
        return self.analyzer.summary()

    @property
    def saturated(self):
        """True when the open-system stability detector fired (closed
        runs have no arrival process to saturate and report False)."""
        open_totals = self.totals.get("open_system")
        return bool(open_totals and open_totals.get("saturated"))

    def describe(self):
        """Short human-readable result line (used by examples/reports)."""
        tps = self.interval("throughput")
        line = (
            f"{self.algorithm:18s} mpl={self.params.mpl:<4d} "
            f"throughput={tps.mean:7.3f} ±{tps.half_width:.3f} tps  "
            f"resp={self.mean('response_time'):6.3f}s  "
            f"restarts/commit={self.mean('restart_ratio'):5.2f}  "
            f"blocks/commit={self.mean('block_ratio'):5.2f}"
        )
        open_totals = self.totals.get("open_system")
        if open_totals:
            if open_totals.get("saturated"):
                line += (
                    f"  [SATURATED lambda="
                    f"{open_totals['arrival_rate']:.2f}/s > capacity]"
                )
            else:
                line += (
                    f"  [open: lambda="
                    f"{open_totals['arrival_rate']:.2f}/s stable]"
                )
        return line


def _open_trajectory(params, algorithm, run, tapes, subscribers,
                     invariants):
    """``(model, checker)``: one seeded trajectory, observers attached.

    ``invariants`` is ``"strict"``/``"warn"``/``"off"``/None (None
    means off). The checker joins the subscribers, so it rides the same
    attach path as every other observer; ``"off"`` attaches nothing at
    all, which keeps the bus's fast-path flags down and the hot loops
    allocation-free.
    """
    mode = resolve_invariant_mode(invariants)
    checker = None if mode == "off" else InvariantChecker(mode=mode)
    if checker is not None:
        subscribers = (*subscribers, checker)
    model = SystemModel(
        params,
        algorithm=algorithm,
        seed=run.seed,
        tapes=tapes,
        subscribers=subscribers,
    )
    return model, checker


def _batch_values(model, batch_time):
    """Advance ``model`` one batch per step; yield each batch's values.

    The library's one batch loop: batch ``i`` (1-based) ends at
    ``i * batch_time`` simulated seconds, and its per-batch output
    variables are the metrics' change across it. The generator never
    ends on its own; each driver's stopping rule ends it.
    """
    metrics, env = model.metrics, model.env
    for boundary in itertools.count(1):
        snapshot = metrics.snapshot()
        env.run(until=boundary * batch_time)
        yield metrics.batch_values(snapshot)


def _end_of_run(model, params, run, analyzer, checker, extra=None):
    """The :class:`SimulationResult` of a run ending at this boundary.

    Every totals source is cumulative and non-mutating, so a result
    read at a batch boundary equals what a run stopping there collects
    at its end. The diagnostics hold the buffer pool's summary (buffer
    models only), the checker's report and ``extra`` (a dict or None);
    None when all three are absent.
    """
    diagnostics = {}
    buffer = model.physical.buffer_summary()
    if buffer is not None:
        diagnostics["buffer"] = dict(buffer)
    if checker is not None:
        diagnostics["invariants"] = checker.report()
    diagnostics.update(extra or {})
    return SimulationResult(
        algorithm=model.cc.name,
        params=params,
        run=run,
        analyzer=analyzer,
        totals=_collect_totals(model),
        diagnostics=diagnostics or None,
    )


def run_point_replications(params, algorithm, run, replications,
                           tapes=None, batch_callback=None,
                           invariants=None, subscribers=(),
                           boundary_diagnostics=None):
    """One fused trajectory; all ``replications`` results carved from it.

    Replication ``r`` is the ``r``-th ``run.batches``-sized segment of
    one deterministic trajectory (``warmup_batches = w + r*B``).
    Running each as its own trajectory would re-simulate the prefix
    every time; this simulates ``w + R*B`` batches once. ``R``
    :class:`~repro.stats.BatchMeansAnalyzer`\\ s, one per replication
    and with its warmup, record the same per-batch values, and each
    replication's totals and diagnostics are read at its end boundary.

    Returns a list of ``replications`` :class:`SimulationResult`\\ s;
    element ``r`` is bit-identical to ``run_simulation(params,
    algorithm, run=run.with_changes(warmup_batches=run.warmup_batches
    + r * run.batches))`` (both read the same model, same seed, same
    event order, at the same boundaries), and ``run_simulation`` is
    itself the ``replications=1`` case. ``batch_callback`` fires with
    the model after every batch boundary (warmup included); it exists
    for run supervision — the sweep runner's stall watchdog and
    wall-clock deadline live there — and may raise to abort the run,
    the exception propagating unchanged. ``tapes`` (a
    :class:`~repro.fastlane.TapeStore` or None) is forwarded to the
    model: the sweep runner passes its store, so the point reads the
    draw sequences recorded on the tape of its own params and seed,
    and every result is bit-identical to a run without one.

    ``subscribers`` observe the whole trajectory.
    ``boundary_diagnostics`` (a zero-argument callable returning a dict
    or None) is read at each replication's end boundary and merged into
    that replication's diagnostics — the sweep runner reports its time
    series and trace file there, so replication ``r`` sees exactly what
    a stand-alone run of it would have observed.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    model, checker = _open_trajectory(
        params, algorithm, run, tapes, subscribers, invariants
    )
    warmup, batches = run.warmup_batches, run.batches
    # Analyzer r retires at replication r's end boundary: the
    # stand-alone run of r has stopped there, so it must not see later
    # batches.
    active = [
        BatchMeansAnalyzer(
            warmup_batches=warmup + rep * batches,
            confidence=run.confidence,
        )
        for rep in range(replications)
    ]
    results = []
    try:
        for index, values in enumerate(
                _batch_values(model, run.batch_time), 1):
            for analyzer in active:
                analyzer.record(values)
            if batch_callback is not None:
                batch_callback(model)
            rep = len(results)
            if index < warmup + (rep + 1) * batches:
                continue
            results.append(_end_of_run(
                model, params,
                run if rep == 0 else run.with_changes(
                    warmup_batches=warmup + rep * batches
                ),
                active.pop(0), checker,
                boundary_diagnostics() if boundary_diagnostics else None,
            ))
            if not active:
                return results
    finally:
        model.close()


def run_simulation(params, algorithm="blocking", run=None, seed=None,
                   batch_callback=None, subscribers=(), invariants=None):
    """Run one configuration to completion using modified batch means.

    ``run.warmup_batches`` initial batches are simulated but discarded;
    each retained batch contributes one sample per output variable.
    ``seed`` overrides ``run.seed`` when given. This is the one-
    replication case of :func:`run_point_replications`, the executor
    every sweep point runs on, so a stand-alone run and a sweep point
    share one code path.

    The model draws its transactions, think times and disk picks
    itself, each as a private draw sequence; a sweep point reads the
    same values from its sweep's workload tape
    (:mod:`repro.fastlane.tapes`).

    ``subscribers`` (extra :mod:`repro.obs` consumers, e.g. a
    :class:`~repro.obs.TimeSeriesSampler` or :class:`~repro.obs.JsonlSink`)
    are forwarded to the model's instrumentation bus. Subscribers only
    observe, so attaching them leaves the result bit-identical.

    ``batch_callback``, if given, is invoked with the model after every
    batch boundary (warmup included). It exists for run supervision —
    the sweep runner's stall watchdog and wall-clock deadline live
    there — and may raise to abort the run; the exception propagates
    to the caller unchanged.

    ``invariants`` attaches an :class:`~repro.obs.InvariantChecker`
    that continuously audits the run's event stream, serializability of
    the committed transactions included: ``"strict"``
    raises :class:`~repro.obs.InvariantViolationError` at the violating
    event, ``"warn"`` records violations into
    ``result.diagnostics["invariants"]``, ``"off"`` attaches nothing.
    ``None`` (the default) means ``"off"``.
    """
    if run is None:
        run = RunConfig()
    if seed is not None:
        run = run.with_changes(seed=seed)
    return run_point_replications(
        params, algorithm, run, 1,
        batch_callback=batch_callback,
        invariants=invariants,
        subscribers=subscribers,
    )[0]


def run_until_precision(params, algorithm="blocking", run=None,
                        metric="throughput", target_relative_hw=0.05,
                        max_batches=200, seed=None,
                        subscribers=(), invariants=None):
    """Run with a *sequential stopping rule* instead of a fixed length.

    The paper chose its batch times per experiment to get "sufficiently
    tight 90% confidence intervals" — typically a few percent of the
    mean. This driver automates that: after each post-warmup batch it
    checks the chosen metric's confidence interval and stops as soon as
    the relative half-width drops to ``target_relative_hw`` (or at
    ``max_batches``, whichever comes first). A minimum of three batches
    is always collected so the interval is meaningful.

    It steps the same batch loop and assembles its result the same way
    as :func:`run_simulation`; only the stopping rule differs, so a run
    that stops after ``N`` retained batches is bit-identical to
    ``run_simulation`` with ``batches=N``. Returns a
    :class:`SimulationResult` whose ``run.batches`` reflects the number
    of batches actually retained.
    """
    if not 0.0 < target_relative_hw:
        raise ValueError(
            f"target_relative_hw must be > 0, got {target_relative_hw}"
        )
    if max_batches < 3:
        raise ValueError(f"max_batches must be >= 3, got {max_batches}")
    run = run or RunConfig()
    if seed is not None:
        run = run.with_changes(seed=seed)
    model, checker = _open_trajectory(
        params, algorithm, run, None, subscribers, invariants
    )
    analyzer = BatchMeansAnalyzer(
        warmup_batches=run.warmup_batches, confidence=run.confidence
    )
    try:
        for values in _batch_values(model, run.batch_time):
            analyzer.record(values)
            retained = analyzer.batches_recorded
            if retained >= max_batches or (
                    retained >= 3
                    and analyzer.interval(metric).relative_half_width
                    <= target_relative_hw):
                break
        return _end_of_run(
            model, params, run.with_changes(batches=retained), analyzer,
            checker,
        )
    finally:
        model.close()

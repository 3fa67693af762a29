"""Top-level simulation driver: batch-means runs producing results.

This is the library's main entry point::

    from repro import SimulationParameters, RunConfig, run_simulation

    params = SimulationParameters.table2(mpl=25)
    result = run_simulation(params, algorithm="blocking",
                            run=RunConfig(batches=20, batch_time=30.0))
    print(result.mean("throughput"), result.interval("throughput"))
"""

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.engine import SystemModel
from repro.core.params import RunConfig, SimulationParameters
from repro.obs.invariants import InvariantChecker, resolve_invariant_mode
from repro.stats import BatchMeansAnalyzer, assess_stability

__all__ = ["SimulationResult", "run_simulation", "run_until_precision"]


def _collect_totals(model):
    """Cumulative whole-run totals (shared by both drivers)."""
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


def _buffer_diagnostics(model):
    """The diagnostics payload for buffer-pool models (else None)."""
    buffer = model.physical.buffer_summary()
    if buffer is None:
        return None
    return {"buffer": dict(buffer)}


def _resolve_checker(invariants, subscribers):
    """(checker or None, subscribers) for the requested invariant mode.

    ``invariants`` is ``"strict"``/``"warn"``/``"off"``/None (None
    defers to the ``REPRO_INVARIANTS`` environment variable, default
    off). The checker joins the subscriber list, so it rides the same
    attach path as every other observer; ``"off"`` attaches nothing at
    all, which keeps the bus's fast-path flags down and the hot loops
    allocation-free.
    """
    mode = resolve_invariant_mode(invariants)
    if mode == "off":
        return None, subscribers
    checker = InvariantChecker(mode=mode)
    return checker, (*tuple(subscribers), checker)


def _merge_invariant_diagnostics(diagnostics, checker):
    """Fold the checker's report into a diagnostics payload."""
    if checker is None:
        return diagnostics
    return {**(diagnostics or {}), "invariants": checker.report()}


@dataclass
class SimulationResult:
    """Everything measured by one simulation run."""

    algorithm: str
    params: SimulationParameters
    run: RunConfig
    analyzer: BatchMeansAnalyzer
    #: Cumulative totals over the whole run (including warmup).
    totals: Dict[str, Any] = field(default_factory=dict)
    #: The model, kept only when history recording was requested.
    model: Optional[SystemModel] = None
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


def run_simulation(params, algorithm="blocking", run=None, seed=None,
                   record_history=False, batch_callback=None,
                   subscribers=(), invariants=None, workload=None):
    """Run one configuration to completion using modified batch means.

    ``run.warmup_batches`` initial batches are simulated but discarded;
    each retained batch contributes one sample per output variable.
    ``seed`` overrides ``run.seed`` when given. With ``record_history``
    the result keeps the model (and its committed history) for
    verification — costs memory, off by default.

    ``workload`` substitutes the model's transaction source (anything
    with a ``new_transaction(terminal_id)`` method and a ``generated``
    counter); None builds the default seeded
    :class:`~repro.core.workload.WorkloadGenerator`. Sweeps pass a
    :class:`~repro.fastlane.TapeWorkload` to the model, which replays
    the byte-identical transaction sequence from a shared precomputed
    tape.

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
    that continuously audits the run's event stream: ``"strict"``
    raises :class:`~repro.obs.InvariantViolationError` at the violating
    event, ``"warn"`` records violations into
    ``result.diagnostics["invariants"]``, ``"off"`` attaches nothing.
    ``None`` (the default) defers to the ``REPRO_INVARIANTS``
    environment variable, then ``"off"``.
    """
    if run is None:
        run = RunConfig()
    if seed is not None:
        run = run.with_changes(seed=seed)
    checker, subscribers = _resolve_checker(invariants, subscribers)
    model = SystemModel(
        params,
        algorithm=algorithm,
        seed=run.seed,
        record_history=record_history,
        workload=workload,
        subscribers=subscribers,
    )
    analyzer = BatchMeansAnalyzer(
        warmup_batches=run.warmup_batches, confidence=run.confidence
    )
    total_batches = run.batches + run.warmup_batches
    for batch_index in range(total_batches):
        snapshot = model.metrics.snapshot()
        model.run_until((batch_index + 1) * run.batch_time)
        analyzer.record(model.metrics.batch_values(snapshot))
        if batch_callback is not None:
            batch_callback(model)
    totals = _collect_totals(model)
    return SimulationResult(
        algorithm=model.cc.name,
        params=params,
        run=run,
        analyzer=analyzer,
        totals=totals,
        model=model if record_history else None,
        diagnostics=_merge_invariant_diagnostics(
            _buffer_diagnostics(model), checker
        ),
    )


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

    Returns a :class:`SimulationResult` whose ``run.batches`` reflects
    the number of batches actually retained.
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
    checker, subscribers = _resolve_checker(invariants, subscribers)
    model = SystemModel(
        params, algorithm=algorithm, seed=run.seed,
        subscribers=subscribers,
    )
    analyzer = BatchMeansAnalyzer(
        warmup_batches=run.warmup_batches, confidence=run.confidence
    )
    batch_index = 0
    while True:
        snapshot = model.metrics.snapshot()
        model.run_until((batch_index + 1) * run.batch_time)
        analyzer.record(model.metrics.batch_values(snapshot))
        batch_index += 1
        retained = analyzer.batches_recorded
        if retained >= 3:
            interval = analyzer.interval(metric)
            if interval.relative_half_width <= target_relative_hw:
                break
        if retained >= max_batches:
            break
    totals = _collect_totals(model)
    return SimulationResult(
        algorithm=model.cc.name,
        params=params,
        run=run.with_changes(batches=analyzer.batches_recorded),
        analyzer=analyzer,
        totals=totals,
        diagnostics=_merge_invariant_diagnostics(
            _buffer_diagnostics(model), checker
        ),
    )

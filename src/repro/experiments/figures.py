"""The paper's figures (Figures 3-21): one registry, one reproduction path.

:data:`FIGURES` is the only place a figure is defined. Each
:class:`Figure` entry names the experiment whose sweep it plots, the
metrics it plots, its caption, its pinned run (the statistics profile
of the checked-in ``benchmarks/results/figureNN.txt`` table) and its
claim: the statement the paper makes with the figure, as a function of
the figure's data that returns failure messages. Each entry is
declared right above its claim.

:meth:`FigureBuilder.reproduce` is the one reproduction path. It builds
a figure, renders its table text and, for the pinned reproduction,
checks every point against the operational bounds and evaluates the
claim. ``repro-experiments --figure N`` and
``benchmarks/bench_figures.py`` both call it. Sweeps are cached per
experiment within a builder, so Figures 5, 6 and 7 — which share
Experiment 2's sweep — simulate once.
"""

import functools
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import check_result_against_bounds
from repro.core import RunConfig
from repro.experiments.configs import experiment_configs
from repro.experiments.report import metric_label, sweep_report
from repro.experiments.runner import run_sweep


@dataclass
class FigureData:
    """The data behind one paper figure."""

    figure: int
    title: str
    experiment_id: str
    #: metric -> algorithm -> [(mpl, mean, ci)]
    series: Dict[str, Dict[str, List[Tuple]]] = field(default_factory=dict)
    sweep: object = None

    def algorithms(self):
        for per_alg in self.series.values():
            return sorted(per_alg)
        return []

    def values(self, metric, algorithm):
        """[(mpl, mean)] without the confidence intervals."""
        return [
            (mpl, mean) for mpl, mean, _ in self.series[metric][algorithm]
        ]

    def value_at(self, metric, algorithm, mpl):
        """The series' mean at one mpl."""
        return dict(self.values(metric, algorithm))[mpl]

    def peak(self, metric, algorithm):
        """(mpl, value) of the series' maximum."""
        points = self.values(metric, algorithm)
        return max(points, key=lambda p: p[1])

    def peak_value(self, metric, algorithm):
        """Maximum of a series over the swept mpls."""
        return self.peak(metric, algorithm)[1]

    def max_mpl(self):
        """The highest swept mpl."""
        metric = next(iter(self.series))
        algorithm = self.algorithms()[0]
        return max(mpl for mpl, _ in self.values(metric, algorithm))

    def describe(self):
        lines = [f"Figure {self.figure}: {self.title}"]
        for metric, per_alg in self.series.items():
            lines.append(f"  {metric_label(metric)}")
            for algorithm, points in sorted(per_alg.items()):
                rendered = ", ".join(
                    f"{mpl}:{mean:.3f}" for mpl, mean, _ in points
                )
                lines.append(f"    {algorithm:18s} {rendered}")
        return "\n".join(lines)

    def report(self, with_plots=True):
        """The figure's table text: its sweep's report, then its series."""
        text = sweep_report(
            self.sweep, with_plots=with_plots,
            figures=figures_of(self.experiment_id),
        )
        return f"{text}\n\n{self.describe()}\n"


@dataclass(frozen=True)
class Figure:
    """One registry entry: what a paper figure plots and claims."""

    number: int
    experiment_id: str
    #: The metrics the figure plots.
    metrics: Tuple[str, ...]
    #: The paper's caption.
    title: str
    #: The statistics profile of the checked-in table.
    run: RunConfig
    #: ``claim(data, builder)`` -> failure messages (empty = holds).
    claim: Callable[["FigureData", "FigureBuilder"], List[str]]


@dataclass
class Reproduction:
    """One built figure: its data, its table text and its verdict."""

    data: FigureData
    text: str
    #: Claim and bounds-oracle failure messages; None when unchecked
    #: (not the pinned reproduction).
    failures: Optional[List[str]]


class FigureBuilder:
    """Builds paper figures, sharing sweeps across figures of one
    experiment.

    ``run=None`` runs each experiment at its figures' pinned run;
    ``mpls`` and ``algorithms`` restrict the grid. ``inject`` (a
    :class:`~repro.faults.FaultSpec`), ``resource_model``,
    ``workload_model``, ``workload_spec``, ``nodes`` and
    ``commit_protocol`` overlay every experiment's parameters (the
    CLI flags of the same names). ``checkpoint_dir`` checkpoints each
    experiment's sweep to ``<dir>/<experiment_id>.ckpt.jsonl`` (created
    on demand); other ``sweep_options`` are forwarded to
    :func:`run_sweep` verbatim (deadline, retries, stall_timeout,
    resume, workers, timeseries, trace, ...).
    """

    def __init__(self, run=None, mpls=None, algorithms=None, progress=None,
                 inject=None, resource_model=None, workload_model=None,
                 workload_spec=None, nodes=None, commit_protocol=None,
                 checkpoint_dir=None,
                 **sweep_options):
        self.run = run
        self.mpls = mpls
        self.algorithms = algorithms
        self.progress = progress
        #: Parameter changes overlaid on every experiment.
        self.overlays = {
            name: value
            for name, value in (
                ("faults", inject),
                ("resource_model", resource_model),
                ("workload_model", workload_model),
                ("workload_spec", workload_spec),
                ("nodes", nodes),
                ("commit_protocol", commit_protocol),
            )
            if value is not None
        }
        self.checkpoint_dir = checkpoint_dir
        self.sweep_options = sweep_options
        self._configs = experiment_configs()
        self._sweeps = {}

    @property
    def pinned(self):
        """True for the pinned reproduction: pinned runs, the full
        grid, no overlay and one replication — the only builds whose
        claims are checked."""
        return (
            self.run is None
            and self.mpls is None
            and self.algorithms is None
            and not self.overlays
            and self.sweep_options.get("replications", 1) == 1
        )

    def checkpoint_path(self, experiment_id):
        """This experiment's checkpoint file (None without a dir)."""
        if self.checkpoint_dir is None:
            return None
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        return os.path.join(
            self.checkpoint_dir, f"{experiment_id}.ckpt.jsonl"
        )

    def config_for(self, experiment_id):
        """The experiment config, with any overlays applied."""
        config = self._configs[experiment_id]
        if not self.overlays:
            return config
        return replace(
            config, params=config.params.with_changes(**self.overlays)
        )

    def sweep_for(self, experiment_id):
        """The (cached) sweep of one experiment."""
        if experiment_id not in self._sweeps:
            self._sweeps[experiment_id] = run_sweep(
                self.config_for(experiment_id),
                run=self.run or pinned_run(experiment_id),
                mpls=self.mpls,
                algorithms=self.algorithms,
                progress=self.progress,
                checkpoint=self.checkpoint_path(experiment_id),
                **self.sweep_options,
            )
        return self._sweeps[experiment_id]

    def figure(self, number):
        """Build the data behind paper figure ``number`` (3..21)."""
        if number not in FIGURES:
            raise ValueError(
                f"the paper has figures 3..21; got {number}"
            )
        entry = FIGURES[number]
        sweep = self.sweep_for(entry.experiment_id)
        data = FigureData(
            figure=number,
            title=entry.title,
            experiment_id=entry.experiment_id,
            sweep=sweep,
        )
        for metric in entry.metrics:
            data.series[metric] = {
                algorithm: sweep.series(metric, algorithm)
                for algorithm in sweep.algorithms()
            }
        return data

    def reproduce(self, number, with_plots=True):
        """Build figure ``number``, render its table text and check it.

        For the pinned reproduction (:attr:`pinned`), every point of
        the figure's sweep is checked against the operational bounds
        (:func:`~repro.analysis.check_result_against_bounds`) — no
        concurrency control can beat the queueing theory — and the
        figure's claim is evaluated. Other builds are not checked.
        """
        data = self.figure(number)
        failures = None
        if self.pinned:
            failures = (
                _bound_failures(data) + FIGURES[number].claim(data, self)
            )
        return Reproduction(data, data.report(with_plots), failures)


def _bound_failures(data):
    """One message per sweep point that breaks its operational bounds."""
    failures = []
    for (algorithm, mpl), result in sorted(data.sweep.results.items()):
        try:
            check_result_against_bounds(result)
        except AssertionError as error:
            failures.append(
                f"Figure {data.figure}: {algorithm} mpl={mpl} breaks the "
                f"operational bounds: {error}"
            )
    return failures


def majority(pairs):
    """True if the first element wins in more than half the pairs."""
    wins = sum(1 for a, b in pairs if a > b)
    return wins > len(pairs) / 2


#: Pinned run of Experiments 1-4: smaller than the paper's 20 large
#: batches, big enough for stable orderings.
PINNED_RUN = RunConfig(batches=4, batch_time=20.0, warmup_batches=1, seed=42)

#: Pinned run of Experiment 5: its interactive workloads have
#: multi-second think and response times, so they need longer batches
#: to settle.
THINK_RUN = RunConfig(batches=3, batch_time=60.0, warmup_batches=1, seed=42)

_THROUGHPUT = ("throughput",)
_DISK = ("disk_util", "disk_util_useful")
_RESPONSE = ("response_time", "response_time_std")

#: Figure number -> its registry entry (Figures 3-21), one
#: :func:`_figure` declaration each below.
FIGURES: Dict[int, Figure] = {}


def _figure(number, experiment_id, metrics, title, run=PINNED_RUN):
    """Register paper figure ``number``; the decorated generator of
    ``(holds, message)`` checks becomes its claim.

    The claim returns the messages of the checks that do not hold, each
    naming its figure (no ``assert``: ``python -O`` would strip it).
    """
    def register(checks):
        @functools.wraps(checks)
        def claim(data, builder):
            return [
                f"Figure {data.figure}: {message}"
                for holds, message in checks(data, builder)
                if not holds
            ]

        FIGURES[number] = Figure(
            number, experiment_id, metrics, title, run, claim
        )
        return claim

    return register


def figures_of(experiment_id):
    """The paper figures one experiment's sweep regenerates, in order."""
    return tuple(
        number for number, entry in FIGURES.items()
        if entry.experiment_id == experiment_id
    )


def pinned_run(experiment_id):
    """The pinned run of an experiment's figures (None if it has none)."""
    return next(
        (entry.run for entry in FIGURES.values()
         if entry.experiment_id == experiment_id),
        None,
    )


def _useful_within_total(data):
    """Useful <= total disk utilization, everywhere, for everyone."""
    for algorithm in data.algorithms():
        for mpl, total in data.values("disk_util", algorithm):
            useful = data.value_at("disk_util_useful", algorithm, mpl)
            yield useful <= total + 1e-9, (
                f"{algorithm} useful disk utilization exceeds total at "
                f"mpl={mpl}"
            )


def _disk_waste(data, algorithm, mpl):
    """Total minus useful disk utilization: the disk time restarts burn."""
    return (
        data.value_at("disk_util", algorithm, mpl)
        - data.value_at("disk_util_useful", algorithm, mpl)
    )


# ---- the registry: each figure's entry and claim ------------------------


@_figure(3, "exp1_low_conflict_infinite", _THROUGHPUT,
         "Throughput (Infinite Resources, Low Conflict)")
def claim_fig03(data, builder):
    """Figure 3 — Throughput, low conflict (db=10,000), infinite resources.

    Paper claim: with rare conflicts "it makes little difference which
    concurrency control algorithm is used"; the three curves track each
    other closely, rising with the multiprogramming level.
    """
    algorithms = data.algorithms()
    yield set(algorithms) == {
        "blocking", "immediate_restart", "optimistic"
    }, f"expected the three paper algorithms, got {algorithms}"
    mpls = [mpl for mpl, _ in data.values("throughput", "blocking")]
    # All three algorithms close at every multiprogramming level.
    for mpl in mpls:
        values = [
            data.value_at("throughput", algorithm, mpl)
            for algorithm in algorithms
        ]
        yield max(values) <= 1.30 * min(values), (
            f"algorithms should be close under low conflict at mpl={mpl}: "
            f"{dict(zip(algorithms, values))}"
        )
    # Throughput rises with mpl (no thrashing in sight at low conflict).
    for algorithm in algorithms:
        series = data.values("throughput", algorithm)
        yield series[-1][1] > 2.0 * series[0][1], (
            f"{algorithm} should scale with mpl under infinite resources"
        )


@_figure(4, "exp1_low_conflict_finite", _THROUGHPUT,
         "Throughput (1 CPU, 2 Disks, Low Conflict)")
def claim_fig04(data, builder):
    """Figure 4 — Throughput, low conflict (db=10,000), 1 CPU / 2 disks.

    Paper claim: the three algorithms stay close under low conflict even
    with finite resources ("blocking outperformed the other two algorithms
    by a small amount"), and throughput saturates at the resource ceiling.
    """
    algorithms = data.algorithms()
    mpls = [mpl for mpl, _ in data.values("throughput", "blocking")]
    for mpl in mpls:
        values = [
            data.value_at("throughput", algorithm, mpl)
            for algorithm in algorithms
        ]
        yield max(values) <= 1.35 * min(values), (
            f"algorithms should be close under low conflict at mpl={mpl}"
        )
    # Blocking at least matches the restart strategies at its peak.
    yield data.peak_value("throughput", "blocking") >= 0.95 * max(
        data.peak_value("throughput", algorithm) for algorithm in algorithms
    ), "blocking's peak should match the restart strategies' peaks"
    # The disk ceiling for 8-page read sets is ~2/(8*0.035) = 7.1 tps;
    # with write traffic it is lower. Nobody can exceed it.
    for algorithm in algorithms:
        yield data.peak_value("throughput", algorithm) < 7.2, (
            f"{algorithm} should stay below the 7.2 tps disk ceiling"
        )


@_figure(5, "exp2_infinite", _THROUGHPUT,
         "Throughput (Infinite Resources)")
def claim_fig05(data, builder):
    """Figure 5 — Throughput under infinite resources (Experiment 2).

    Paper claims encoded below:

    * the optimistic algorithm's throughput keeps increasing with the
      multiprogramming level — restarted transactions are simply
      replaced by new ones, so the effective mpl stays high;
    * blocking starts *thrashing* beyond a knee: throughput at mpl=200
      falls well below its peak;
    * immediate-restart reaches a plateau — the adaptive restart delay
      caps the actual number of active transactions.
    """
    # Optimistic dominates at the top end and does not thrash.
    top = max(mpl for mpl, _ in data.values("throughput", "optimistic"))
    optimistic_top = data.value_at("throughput", "optimistic", top)
    blocking_top = data.value_at("throughput", "blocking", top)
    yield optimistic_top >= 0.90 * data.peak_value(
        "throughput", "optimistic"
    ), "optimistic should keep climbing, not thrash"
    yield optimistic_top > 2.0 * blocking_top, (
        "optimistic should dominate blocking at very high mpl"
    )

    # Blocking thrashes: mpl=200 throughput far below its peak.
    blocking_peak_mpl, blocking_peak = data.peak("throughput", "blocking")
    yield blocking_peak_mpl < top, f"blocking should peak below mpl={top}"
    yield blocking_top < 0.6 * blocking_peak, (
        "blocking should thrash beyond its knee under infinite resources"
    )

    # Immediate-restart plateaus: the last three points are flat.
    series = data.values("throughput", "immediate_restart")
    tail = [value for _, value in series[-3:]]
    yield max(tail) <= 1.15 * min(tail), (
        f"immediate-restart should plateau, got tail {tail}"
    )
    # ... at a level between blocking's collapse and optimistic's climb.
    yield tail[-1] > blocking_top, (
        "immediate-restart's plateau should sit above blocking's collapse"
    )
    yield tail[-1] < optimistic_top, (
        "immediate-restart's plateau should sit below optimistic's climb"
    )


@_figure(6, "exp2_infinite", ("block_ratio", "restart_ratio"),
         "Conflict Ratios (Infinite Resources)")
def claim_fig06(data, builder):
    """Figure 6 — Block and restart ratios under infinite resources.

    Paper claims encoded below:

    * blocking's thrashing is driven by the *block ratio* (blocked
      transactions per commit), which grows sharply with mpl — not by
      its restart (deadlock) ratio, which stays comparatively small;
    * the optimistic algorithm's restart ratio rises quickly with mpl —
      but, per Figure 5, this does not stop its throughput from
      climbing;
    * the immediate-restart ratio flattens with its throughput plateau.
    """
    top = data.max_mpl()

    # Blocking: block ratio grows strongly with mpl...
    low = data.value_at("block_ratio", "blocking", 5)
    high = data.value_at("block_ratio", "blocking", top)
    yield high > 5 * max(low, 0.01), (
        f"block ratio should explode with mpl: {low} -> {high}"
    )
    # ... and dominates its own restart (deadlock) ratio at high mpl:
    # thrashing comes from waiting, not from deadlock restarts.
    yield high > data.value_at("restart_ratio", "blocking", top), (
        "blocking should thrash on blocks, not deadlock restarts"
    )

    # Optimistic restarts climb with mpl.
    yield data.value_at("restart_ratio", "optimistic", top) > (
        3 * max(data.value_at("restart_ratio", "optimistic", 5), 0.01)
    ), "optimistic's restart ratio should climb with mpl"

    # Only blocking ever blocks; restart strategies never wait.
    for algorithm in ("immediate_restart", "optimistic"):
        for mpl, value in data.values("block_ratio", algorithm):
            yield value == 0.0, f"{algorithm} must never block"


@_figure(7, "exp2_infinite", _RESPONSE,
         "Response Time (Infinite Resources)")
def claim_fig07(data, builder):
    """Figure 7 — Response time mean and standard deviation, infinite
    resources.

    Paper claims encoded below:

    * mean response times follow from the throughput results via the
      closed queuing model (low throughput => high response time);
    * the standard deviation of response time is smaller for blocking
      than for immediate-restart over most multiprogramming levels —
      the immediate-restart algorithm's "response time variance is
      quite significant", which matters to users.
    """
    mpls = [mpl for mpl, _ in data.values("response_time", "blocking")]

    # Immediate-restart shows larger response-time variability than
    # blocking over most of the swept range.
    pairs = [
        (
            data.value_at("response_time_std", "immediate_restart", mpl),
            data.value_at("response_time_std", "blocking", mpl),
        )
        for mpl in mpls
    ]
    yield majority(pairs), (
        "immediate-restart should have the larger response-time std dev "
        f"over most mpls: {pairs}"
    )

    # Closed-model sanity: at the top mpl, the slower algorithm
    # (blocking, which thrashes) has the larger mean response time.
    top = mpls[-1]
    yield data.value_at("response_time", "blocking", top) > data.value_at(
        "response_time", "optimistic", top
    ), f"blocking should respond slower than optimistic at mpl={top}"

    # "The response times are basically what one would expect, given
    # the throughput results plus the fact that we have employed a
    # closed queuing model" — i.e. the interactive response-time law
    # R = N/X - Z with N=200 terminals and Z=1 s of external thinking,
    # to within 30%.
    N, Z = 200, 1.0
    for algorithm in data.algorithms():
        for mpl in mpls:
            throughput = data.sweep.result(algorithm, mpl).throughput
            expected = N / throughput - Z
            measured = data.value_at("response_time", algorithm, mpl)
            yield abs(measured - expected) <= 0.30 * abs(expected), (
                f"{algorithm}@mpl={mpl}: R={measured:.2f} but closed "
                f"law predicts {expected:.2f}"
            )


@_figure(8, "exp3_finite", _THROUGHPUT,
         "Throughput (1 CPU, 2 Disks)")
def claim_fig08(data, builder):
    """Figure 8 — Throughput with 1 CPU and 2 disks (Experiment 3).

    Paper claims encoded below:

    * the best global throughput belongs to blocking (paper peak:
      mpl=25);
    * the restart-oriented strategies peak earlier (mpl ~= 10) and
      decline as restarts waste the bottleneck disks;
    * beyond its peak every algorithm's curve falls or flattens — nobody
      scales to mpl=200 in a resource-limited system.

    Known reproduction deviation (documented in EXPERIMENTS.md): the
    paper found immediate-restart's mpl=200 throughput slightly above
    blocking's; in our reproduction blocking stays marginally ahead at
    mpl=200. The peak structure — the paper's main claim — reproduces.
    """
    # Blocking owns the best global throughput.
    blocking_peak_mpl, blocking_peak = data.peak("throughput", "blocking")
    for algorithm in ("immediate_restart", "optimistic"):
        yield blocking_peak > data.peak_value("throughput", algorithm), (
            f"blocking must beat {algorithm} at its peak"
        )

    # Blocking peaks at a moderate mpl (paper: 25).
    yield 10 <= blocking_peak_mpl <= 50, (
        f"blocking should peak at mpl 10..50, peaked at {blocking_peak_mpl}"
    )

    # Restart strategies peak at low mpl (paper: 10) ...
    for algorithm in ("immediate_restart", "optimistic"):
        peak_mpl, _ = data.peak("throughput", algorithm)
        yield peak_mpl <= 25, (
            f"{algorithm} should peak early, peaked at {peak_mpl}"
        )

    # ... and decline substantially from peak to mpl=200.
    top = max(mpl for mpl, _ in data.values("throughput", "blocking"))
    for algorithm in ("immediate_restart", "optimistic"):
        yield data.value_at("throughput", algorithm, top) < (
            0.85 * data.peak_value("throughput", algorithm)
        ), f"{algorithm} should decline from its peak to mpl={top}"

    # Immediate-restart flattens at the top end (the restart delay caps
    # the actual multiprogramming level).
    series = data.values("throughput", "immediate_restart")
    tail = [value for _, value in series[-3:]]
    yield max(tail) <= 1.25 * min(tail), (
        f"immediate-restart should flatten at the top end, got tail {tail}"
    )


@_figure(9, "exp3_finite", _DISK,
         "Disk Utilization (1 CPU, 2 Disks)")
def claim_fig09(data, builder):
    """Figure 9 — Total and useful disk utilization, 1 CPU / 2 disks.

    Paper claims encoded below:

    * the disks are the bottleneck: at blocking's throughput peak they
      are nearly saturated (paper: 97.2% total, 92.1% useful at mpl=25);
    * useful utilization never exceeds total utilization;
    * the restart strategies waste a growing slice of the disks as mpl
      rises: their total-minus-useful gap at mpl=200 is much larger
      than blocking's (blocking wastes little — it blocks instead of
      redoing work).
    """
    top = data.max_mpl()

    # Useful <= total everywhere, for everyone.
    yield from _useful_within_total(data)

    # Disks nearly saturated at blocking's best operating point.
    blocking_peak_mpl, _ = data.sweep.peak("throughput", "blocking")
    total_at_peak = data.value_at("disk_util", "blocking", blocking_peak_mpl)
    useful_at_peak = data.value_at(
        "disk_util_useful", "blocking", blocking_peak_mpl
    )
    yield total_at_peak > 0.90, (
        f"disks should be the bottleneck: {total_at_peak:.2f}"
    )
    yield useful_at_peak > 0.80, (
        f"useful disk utilization at blocking's peak should exceed 0.80: "
        f"{useful_at_peak:.2f}"
    )

    # Waste comparison: restarts burn disk time. At moderate mpl the
    # restart strategies waste several times blocking's share; at the
    # very top blocking's own deadlock restarts grow too ("blocking and
    # restarts increase at a much faster rate", paper Exp. 3), so the
    # gap narrows but never inverts.
    for algorithm in ("optimistic", "immediate_restart"):
        yield _disk_waste(data, algorithm, 50) > 2 * _disk_waste(
            data, "blocking", 50
        ), f"{algorithm} should waste over twice blocking's disk at mpl=50"
    yield _disk_waste(data, "optimistic", top) > _disk_waste(
        data, "blocking", top
    ), f"optimistic should waste more disk than blocking at mpl={top}"


@_figure(10, "exp3_finite", _RESPONSE,
         "Response Time (1 CPU, 2 Disks)")
def claim_fig10(data, builder):
    """Figure 10 — Response time mean and std dev, 1 CPU / 2 disks.

    Paper claims encoded below:

    * blocking has the lowest mean response time over most mpls (and
      the lowest globally);
    * the std-dev ordering is blocking best, immediate-restart worst,
      with the optimistic algorithm in between;
    * differences are more pronounced than in the infinite-resource
      case.
    """
    mpls = [mpl for mpl, _ in data.values("response_time", "blocking")]

    # The optimistic algorithm has the worst mean response time over
    # most mpls, and blocking stays within a whisker of the best at
    # every point. (The paper additionally ranks immediate-restart
    # above blocking at no point; in our reproduction the two are tied
    # to within noise at low mpl, and at mpl=200 immediate-restart's
    # mean is biased low by censoring — repeatedly-delayed transactions
    # that have not yet committed are absent from the average. See
    # EXPERIMENTS.md.)
    for algorithm in ("immediate_restart", "blocking"):
        pairs = [
            (
                data.value_at("response_time", "optimistic", mpl),
                data.value_at("response_time", algorithm, mpl),
            )
            for mpl in mpls
        ]
        yield majority(pairs), (
            f"optimistic should respond slower than {algorithm} "
            f"over most mpls"
        )
    for mpl in mpls:
        best = min(
            data.value_at("response_time", algorithm, mpl)
            for algorithm in data.algorithms()
        )
        yield data.value_at("response_time", "blocking", mpl) <= (
            1.15 * best
        ), f"blocking should stay near the best response at mpl={mpl}"

    # Std dev: blocking is the steadiest — both restart strategies show
    # larger response-time variability over most mpls.
    for algorithm in ("immediate_restart", "optimistic"):
        pairs = [
            (
                data.value_at("response_time_std", algorithm, mpl),
                data.value_at("response_time_std", "blocking", mpl),
            )
            for mpl in mpls
        ]
        yield majority(pairs), (
            f"{algorithm} should have larger response-time std dev "
            "than blocking over most mpls"
        )


@_figure(11, "exp3_adaptive_delay", _THROUGHPUT,
         "Throughput (Adaptive Delays)")
def claim_fig11(data, builder):
    """Figure 11 — Adaptive restart delays added to ALL three algorithms
    (1 CPU / 2 disks).

    Paper claims encoded below:

    * giving blocking and optimistic the same adaptive restart delay
      that immediate-restart uses arrests their thrashing at high mpl
      (the delay acts as a crude multiprogramming-level limiter);
    * blocking emerges as the clear winner;
    * the optimistic algorithm becomes comparable to immediate-restart.

    This claim compares against Figure 8 (no delays), read from the
    same builder, which has usually cached its sweep already — the
    "thrashing arrested" claim is a *relative* claim between the two
    figures.
    """
    baseline = builder.figure(8)
    top = max(mpl for mpl, _ in data.values("throughput", "blocking"))

    # Blocking is the clear winner at its peak.
    blocking_peak = data.peak_value("throughput", "blocking")
    for algorithm in ("immediate_restart", "optimistic"):
        yield blocking_peak > 1.05 * data.peak_value(
            "throughput", algorithm
        ), f"blocking's peak should beat {algorithm}'s by over 5%"

    # Optimistic becomes comparable to immediate-restart (within 25%
    # at the top of the curve).
    optimistic_top = data.value_at("throughput", "optimistic", top)
    restart_top = data.value_at("throughput", "immediate_restart", top)
    yield optimistic_top > 0.75 * restart_top, (
        f"optimistic should come within 25% of immediate-restart at "
        f"mpl={top}"
    )

    # Thrashing arrested: optimistic's high-mpl throughput with the
    # delay is no worse than without it (the paper's upper-end rescue).
    yield optimistic_top >= 0.95 * baseline.value_at(
        "throughput", "optimistic", top
    ), f"the delay should arrest optimistic's Figure 8 thrashing at mpl={top}"

    # And the delayed optimistic holds a larger fraction of its own peak
    # than the undelayed one does (the curve flattens instead of diving).
    def retention(figure_data):
        peak = figure_data.peak_value("throughput", "optimistic")
        return figure_data.value_at("throughput", "optimistic", top) / peak

    yield retention(data) >= retention(baseline) * 0.95, (
        "delayed optimistic should retain its peak as well as Figure 8's"
    )


@_figure(12, "exp4_5cpu_10disk", _THROUGHPUT,
         "Throughput (5 CPUs, 10 Disks)")
def claim_fig12(data, builder):
    """Figure 12 — Throughput with 5 CPUs / 10 disks (Experiment 4).

    Paper claims encoded below:

    * the behavior is "fairly similar" to the 1 CPU / 2 disk case:
      blocking again provides the highest overall throughput;
    * for large mpls the immediate-restart strategy beats blocking, but
      its plateau stays below blocking's peak.
    """
    top = max(mpl for mpl, _ in data.values("throughput", "blocking"))

    # Blocking still has the best global peak.
    blocking_peak = data.peak_value("throughput", "blocking")
    for algorithm in ("immediate_restart", "optimistic"):
        yield blocking_peak >= data.peak_value("throughput", algorithm), (
            f"blocking's peak should match {algorithm}'s"
        )

    # Immediate-restart's plateau beats blocking at the very top end
    # (blocking thrashes; the restart delay caps IR's actual mpl) ...
    restart_top = data.value_at("throughput", "immediate_restart", top)
    yield restart_top > data.value_at("throughput", "blocking", top), (
        f"immediate-restart should beat blocking at mpl={top}"
    )
    # ... but never beats blocking's best point.
    yield blocking_peak > restart_top, (
        "immediate-restart's plateau should stay below blocking's peak"
    )

    # More resources, more throughput: everyone's peak beats the
    # 1 CPU / 2 disk ceiling of ~7.1 tps.
    for algorithm in data.algorithms():
        yield data.peak_value("throughput", algorithm) > 7.2, (
            f"{algorithm}'s peak should beat the 1 CPU / 2 disk ceiling"
        )


@_figure(13, "exp4_5cpu_10disk", _DISK,
         "Disk Utilization (5 CPUs, 10 Disks)")
def claim_fig13(data, builder):
    """Figure 13 — Disk utilization with 5 CPUs / 10 disks.

    Paper claims encoded below (numbers from the paper's text):

    * restart-oriented algorithms drive *total* utilization above
      blocking's — the difference is wasted work (paper maxima: blocking
      61.8% total / 55.5% useful; immediate-restart 72.6% / 44.6%;
      optimistic 94.1% / 46.6%);
    * blocking's total-vs-useful gap stays small, the optimistic
      algorithm's grows large.
    """
    top = data.max_mpl()

    def max_util(metric, algorithm):
        return max(value for _, value in data.values(metric, algorithm))

    # Restart strategies reach higher total utilization than blocking.
    blocking_total = max_util("disk_util", "blocking")
    yield max_util("disk_util", "optimistic") > blocking_total, (
        "optimistic should reach a higher total utilization than blocking"
    )
    yield max_util("disk_util", "immediate_restart") >= (
        0.9 * blocking_total
    ), "immediate-restart should reach 90% of blocking's total utilization"

    # But their useful utilization does not correspondingly lead:
    # blocking's max useful utilization at least matches both.
    blocking_useful = max_util("disk_util_useful", "blocking")
    for algorithm in ("immediate_restart", "optimistic"):
        yield blocking_useful >= 0.9 * max_util(
            "disk_util_useful", algorithm
        ), f"blocking's useful utilization should match {algorithm}'s"

    # Waste at the top mpl: optimistic burns far more than blocking.
    yield _disk_waste(data, "optimistic", top) > 2 * _disk_waste(
        data, "blocking", top
    ), f"optimistic should waste over twice blocking's disk at mpl={top}"


@_figure(14, "exp4_25cpu_50disk", _THROUGHPUT,
         "Throughput (25 CPUs, 50 Disks)")
def claim_fig14(data, builder):
    """Figure 14 — Throughput with 25 CPUs / 50 disks (Experiment 4).

    Paper claims encoded below:

    * with this many resources the system "begins to behave somewhat
      like it has infinite resources": the optimistic algorithm's
      maximum throughput edges past blocking's ("although not by very
      much");
    * blocking still thrashes at high mpl (utilization falls as waiting
      rises), while optimistic holds its throughput near the top.

    This is the paper's crossover point between the finite-resource and
    infinite-resource regimes.
    """
    top = max(mpl for mpl, _ in data.values("throughput", "blocking"))

    # The crossover: optimistic's best at least matches blocking's best.
    optimistic_peak = data.peak_value("throughput", "optimistic")
    blocking_peak = data.peak_value("throughput", "blocking")
    yield optimistic_peak >= 0.97 * blocking_peak, (
        f"optimistic ({optimistic_peak:.2f}) should edge past blocking "
        f"({blocking_peak:.2f}) at 25 CPUs / 50 disks"
    )

    # Optimistic clearly dominates at the very high end, where blocking
    # has thrashed.
    blocking_top = data.value_at("throughput", "blocking", top)
    yield data.value_at("throughput", "optimistic", top) > (
        1.5 * blocking_top
    ), f"optimistic should dominate blocking at mpl={top}"

    # Blocking still thrashes: big drop from its peak to mpl=200.
    yield blocking_top < 0.7 * blocking_peak, (
        f"blocking should thrash from its peak to mpl={top}"
    )


@_figure(15, "exp4_25cpu_50disk", _DISK,
         "Disk Utilization (25 CPUs, 50 Disks)")
def claim_fig15(data, builder):
    """Figure 15 — Disk utilization with 25 CPUs / 50 disks.

    Paper claims encoded below (numbers from the paper's text):

    * utilizations are low — at blocking's best point the paper saw
      33.5% total / 30.1% useful; "with useful utilizations in the 30%
      range, the system begins to behave somewhat like it has infinite
      resources";
    * the optimistic algorithm runs the disks much harder (62.6% total)
      for similar useful utilization (32.6%) — wasted resources are
      affordable here, which is exactly why optimistic wins Figure 14;
    * with blocking, utilization *decreases* at high mpl (waiting
      transactions keep the disks idle — thrashing by blocking, not by
      restarts).
    """
    top = data.max_mpl()

    # Low-utilization regime at blocking's best throughput point.
    blocking_peak_mpl, _ = data.sweep.peak("throughput", "blocking")
    blocking_total = data.value_at("disk_util", "blocking", blocking_peak_mpl)
    yield blocking_total < 0.60, (
        f"the 25/50 configuration should be lightly utilized, got "
        f"{blocking_total:.2f}"
    )

    # Optimistic drives total utilization well above blocking's at the
    # top end while wasting most of the difference.
    yield data.value_at("disk_util", "optimistic", top) > 1.5 * (
        data.value_at("disk_util", "blocking", top)
    ), f"optimistic should run the disks much harder at mpl={top}"
    yield _disk_waste(data, "optimistic", top) > 0.10, (
        f"optimistic should waste over 10% of the disks at mpl={top}"
    )

    # Blocking's utilization decreases as mpl grows past the knee:
    # blocked transactions keep the disks idle.
    series = dict(data.values("disk_util", "blocking"))
    yield series[top] < max(series.values()), (
        f"blocking's disk utilization should fall by mpl={top}"
    )


@_figure(16, "exp5_think_1s", _THROUGHPUT,
         "Throughput (1 Second Internal Thinking)", run=THINK_RUN)
def claim_fig16(data, builder):
    """Figure 16 — Interactive workload, 1 second internal think time
    (1 CPU / 2 disks; external think raised to 3 s).

    Paper claim: at only 1 second of internal thinking, the resources
    are still effectively scarce and wasted restarts still hurt:
    "blocking performs better".
    """
    # Blocking still wins at 1 s of internal thinking.
    blocking_peak = data.peak_value("throughput", "blocking")
    for algorithm in ("optimistic", "immediate_restart"):
        yield blocking_peak >= data.peak_value("throughput", algorithm), (
            f"blocking's peak should match {algorithm}'s at 1 s of thinking"
        )


@_figure(17, "exp5_think_1s", _DISK,
         "Disk Utilization (1 Second Internal Thinking)", run=THINK_RUN)
def claim_fig17(data, builder):
    """Figure 17 — Disk utilization, 1 second internal think time.

    Paper claim: useful <= total for everyone, and the restart
    strategies waste more of the disks than blocking does.
    """
    top = data.max_mpl()
    yield from _useful_within_total(data)
    yield _disk_waste(data, "optimistic", top) > _disk_waste(
        data, "blocking", top
    ), f"optimistic should waste more disk than blocking at mpl={top}"


@_figure(18, "exp5_think_5s", _THROUGHPUT,
         "Throughput (5 Seconds Internal Thinking)", run=THINK_RUN)
def claim_fig18(data, builder):
    """Figure 18 — Interactive workload, 5 second internal think time
    (1 CPU / 2 disks; external think raised to 11 s).

    Paper claims encoded below:

    * five seconds of lock-holding thinking cripples blocking, while
      the demand reduction makes the resources behave as if they were
      plentiful: "the throughput and the useful utilization with the
      optimistic algorithm is also better than for blocking";
    * the optimistic peak beats immediate-restart's peak, though
      immediate-restart does better at very high mpl thanks to its
      restart delay's mpl-limiting effect (paper text, Experiment 5).
    """
    optimistic_peak = data.peak_value("throughput", "optimistic")
    # The crossover: optimistic now beats blocking.
    yield optimistic_peak > data.peak_value("throughput", "blocking"), (
        "optimistic's peak should beat blocking's at 5 s of thinking"
    )
    # And optimistic's best beats immediate-restart's best.
    yield optimistic_peak >= data.peak_value(
        "throughput", "immediate_restart"
    ), "optimistic's peak should match immediate-restart's"


@_figure(19, "exp5_think_5s", _DISK,
         "Disk Utilization (5 Seconds Internal Thinking)", run=THINK_RUN)
def claim_fig19(data, builder):
    """Figure 19 — Disk utilization, 5 second internal think time.

    Paper claim: optimistic extracts more useful disk work than
    blocking at the top end — blocking's lock-holding thinkers idle the
    disks; useful <= total for everyone.
    """
    top = data.max_mpl()
    yield data.value_at("disk_util_useful", "optimistic", top) > (
        data.value_at("disk_util_useful", "blocking", top)
    ), f"optimistic should do more useful disk work than blocking at mpl={top}"
    yield from _useful_within_total(data)


@_figure(20, "exp5_think_10s", _THROUGHPUT,
         "Throughput (10 Seconds Internal Thinking)", run=THINK_RUN)
def claim_fig20(data, builder):
    """Figure 20 — Interactive workload, 10 second internal think time
    (1 CPU / 2 disks; external think raised to 21 s).

    Paper claim: at 10 seconds of thinking the finite-resource system
    fully behaves like an infinite-resource one: the optimistic
    algorithm's best throughput is "considerably higher" than
    blocking's.
    """
    optimistic_peak = data.peak_value("throughput", "optimistic")
    blocking_peak = data.peak_value("throughput", "blocking")
    # Considerably higher, not marginal.
    yield optimistic_peak > 1.15 * blocking_peak, (
        f"optimistic ({optimistic_peak:.2f}) should beat blocking "
        f"({blocking_peak:.2f}) clearly at 10 s think time"
    )
    yield optimistic_peak >= data.peak_value(
        "throughput", "immediate_restart"
    ), "optimistic's peak should match immediate-restart's"


@_figure(21, "exp5_think_10s", _DISK,
         "Disk Utilization (10 Seconds Internal Thinking)", run=THINK_RUN)
def claim_fig21(data, builder):
    """Figure 21 — Disk utilization, 10 second internal think time.

    Paper claim: the optimistic algorithm's useful utilization is "much
    higher" than blocking's; useful <= total for everyone.
    """
    top = data.max_mpl()
    # Optimistic's useful utilization clearly above blocking's at the
    # top end.
    yield data.value_at("disk_util_useful", "optimistic", top) > 1.15 * (
        data.value_at("disk_util_useful", "blocking", top)
    ), f"optimistic's useful disk work should clearly lead at mpl={top}"
    yield from _useful_within_total(data)


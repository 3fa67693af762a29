"""The claim registry: the paper's figures (3-21) and named findings.

:data:`FIGURES` defines each paper figure. Each :class:`Figure` entry
names the experiment whose sweep it plots, the metrics it plots, its
caption, its pinned run (the statistics profile of the checked-in
``benchmarks/results/figureNN.txt`` table) and its claim: the statement
the paper makes with the figure, as a function of the figure's data
that returns failure messages. Each entry is declared right above its
claim.

:data:`FINDINGS` defines each named finding beyond the figures: a
handful of fixed runs (its arms) that compare one modeling choice,
each arm ``(label, params, algorithm)``, with a pinned run, a claim of
the same shape and a checked-in ``benchmarks/results/<name>.txt``
table.

:meth:`FigureBuilder.reproduce` is the one reproduction path for both.
It builds an entry, renders its table text and, for the pinned
reproduction, checks every run against the operational bounds and
evaluates the claim. ``repro-experiments --figure N|NAME|all`` and
``benchmarks/bench_figures.py`` both call it. Sweeps are cached per
experiment within a builder, so Figures 5, 6 and 7 — which share
Experiment 2's sweep — simulate once.
"""

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import check_result_against_bounds
from repro.cc.blocking import DETECT_PERIODIC, IMMEDIATE_EXCLUSIVE, BlockingCC
from repro.core import RunConfig, SimulationParameters, run_simulation
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
class FindingData:
    """The runs behind one finding, in arm order."""

    name: str
    title: str
    run: RunConfig
    #: [(label, algorithm, SimulationResult)] with the algorithm as
    #: :func:`algorithm_label` renders it.
    arms: List[Tuple] = field(default_factory=list)

    def __getitem__(self, key):
        """The result of the one arm ``label`` or ``(label, algorithm)``."""
        label, algorithm = key if isinstance(key, tuple) else (key, None)
        matches = [
            result for arm_label, arm_algorithm, result in self.arms
            if arm_label == label and algorithm in (None, arm_algorithm)
        ]
        if len(matches) != 1:
            raise KeyError(key)
        return matches[0]

    def report(self):
        """The finding's table text: one row per arm."""
        label_width = max(len("label"), *(len(arm[0]) for arm in self.arms))
        algorithm_width = max(
            len("algorithm"), *(len(arm[1]) for arm in self.arms)
        )
        header = (
            f"{'label':<{label_width}}  {'algorithm':<{algorithm_width}}  "
            f"{'throughput (tps)':>16}  {'blocks/commit':>13}  "
            f"{'restarts/commit':>15}"
        )
        run = self.run
        lines = [
            "=" * 72,
            f"Finding {self.name}: {self.title}",
            f"(run: {run.batches} batches of {run.batch_time:g} s after "
            f"{run.warmup_batches} warmup, seed {run.seed}; throughput "
            "± 90% half-width)",
            "=" * 72,
            header,
            "-" * len(header),
        ]
        for label, algorithm, result in self.arms:
            tps = result.interval("throughput")
            throughput = f"{tps.mean:.3f} ± {tps.half_width:.3f}"
            lines.append(
                f"{label:<{label_width}}  {algorithm:<{algorithm_width}}  "
                f"{throughput:>16}  {result.mean('block_ratio'):>13.3f}  "
                f"{result.mean('restart_ratio'):>15.3f}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Finding:
    """One registry entry beyond the paper's figures: a named finding."""

    name: str
    #: What the finding compares, on which configuration.
    title: str
    #: ``(label, params, algorithm)`` per run; ``algorithm`` is a CC
    #: registry name or a factory of a CC instance (a
    #: ``functools.partial`` of :class:`~repro.cc.blocking.BlockingCC`).
    arms: Tuple[Tuple, ...]
    #: The statistics profile of the checked-in table.
    run: RunConfig
    #: ``claim(data)`` -> failure messages (empty = holds).
    claim: Callable[[FindingData], List[str]]


def algorithm_label(algorithm):
    """An arm's algorithm as its table prints it: the registry name, or
    ``name(keyword=value, ...)`` for a factory."""
    if isinstance(algorithm, str):
        return algorithm
    options = ", ".join(
        f"{keyword}={value}" for keyword, value in algorithm.keywords.items()
    )
    return f"{algorithm.func.name}({options})"


@dataclass
class Reproduction:
    """One built registry entry: its data, its table text and its verdict."""

    #: FigureData, or FindingData for a finding.
    data: object
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

    def sweep_for(self, experiment_id):
        """The (cached) sweep of one experiment."""
        if experiment_id not in self._sweeps:
            self._sweeps[experiment_id] = self.sweep(
                self._configs[experiment_id], pinned_run(experiment_id)
            )
        return self._sweeps[experiment_id]

    def sweep(self, config, run=None):
        """Run ``config``'s sweep under the builder's overlays, grid
        restrictions and sweep options, at the builder's run (else
        ``run``, else :func:`run_sweep`'s default)."""
        if self.overlays:
            config = replace(
                config, params=config.params.with_changes(**self.overlays)
            )
        return run_sweep(
            config,
            run=self.run or run,
            mpls=self.mpls,
            algorithms=self.algorithms,
            progress=self.progress,
            checkpoint=self.checkpoint_path(config.experiment_id),
            **self.sweep_options,
        )

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

    def finding(self, name):
        """Run every arm of finding ``name``.

        The builder's run and parameter overlays apply to each arm; grid
        restrictions do not (the arms are fixed runs), and of the sweep
        options only ``workers`` does: with ``workers > 1`` the arms,
        independent seeded runs, go to a process pool of that size.
        """
        if name not in FINDINGS:
            raise ValueError(
                f"unknown finding {name!r}; choose from "
                f"{', '.join(FINDINGS)}"
            )
        entry = FINDINGS[name]
        run = self.run or entry.run
        data = FindingData(name, entry.title, run)
        overlays = self.overlays
        jobs = [
            (params.with_changes(**overlays) if overlays else params,
             algorithm, run)
            for _, params, algorithm in entry.arms
        ]
        workers = self.sweep_options.get("workers", 1) or os.cpu_count() or 1
        if workers > 1 and len(jobs) > 1:
            with ProcessPoolExecutor(min(workers, len(jobs))) as pool:
                results = list(pool.map(_run_arm, jobs))
        else:
            results = [_run_arm(job) for job in jobs]
        for (label, _, algorithm), result in zip(entry.arms, results):
            data.arms.append((label, algorithm_label(algorithm), result))
        return data

    def reproduce(self, key, with_plots=True):
        """Build registry entry ``key`` (a figure number or a finding
        name), render its table text and check it.

        For the pinned reproduction (:attr:`pinned`; for a finding, no
        run flag and no overlay), every point of the figure's sweep or
        every arm of the finding is checked against the operational
        bounds (:func:`~repro.analysis.check_result_against_bounds`) —
        no concurrency control can beat the queueing theory — and the
        entry's claim is evaluated. Other builds are not checked.
        """
        if isinstance(key, str):
            data = self.finding(key)
            failures = None
            if self.run is None and not self.overlays:
                failures = _bound_failures(key, (
                    (f"{label} [{algorithm}]", result)
                    for label, algorithm, result in data.arms
                )) + FINDINGS[key].claim(data)
            return Reproduction(data, data.report(), failures)
        data = self.figure(key)
        failures = None
        if self.pinned:
            failures = _bound_failures(f"Figure {key}", (
                (f"{algorithm} mpl={mpl}", result)
                for (algorithm, mpl), result in sorted(
                    data.sweep.results.items()
                )
            )) + FIGURES[key].claim(data, self)
        return Reproduction(data, data.report(with_plots), failures)


def _run_arm(job):
    """One finding arm's run, ``job = (params, algorithm, run)``. A
    factory algorithm is called here, so a pooled arm builds its CC
    instance in the worker."""
    params, algorithm, run = job
    instance = algorithm if isinstance(algorithm, str) else algorithm()
    return run_simulation(params, instance, run)


def _bound_failures(prefix, runs):
    """One message per ``(what, result)`` run that breaks its
    operational bounds."""
    failures = []
    for what, result in runs:
        try:
            check_result_against_bounds(result)
        except AssertionError as error:
            failures.append(
                f"{prefix}: {what} breaks the operational bounds: {error}"
            )
    return failures


def _failures(prefix, checks):
    """The messages of the ``(holds, message)`` checks that do not hold,
    each named by ``prefix`` (no ``assert``: ``python -O`` would strip
    it)."""
    return [f"{prefix}: {message}" for holds, message in checks if not holds]


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
    naming its figure.
    """
    def register(checks):
        @functools.wraps(checks)
        def claim(data, builder):
            return _failures(f"Figure {data.figure}", checks(data, builder))

        FIGURES[number] = Figure(
            number, experiment_id, metrics, title, run, claim
        )
        return claim

    return register


#: Finding name -> its registry entry, one :func:`_finding` declaration
#: each at the end of this module.
FINDINGS: Dict[str, Finding] = {}


def _finding(name, title, arms, run=PINNED_RUN):
    """Register finding ``name``; the decorated generator of ``(holds,
    message)`` checks over its :class:`FindingData` becomes its claim,
    whose failure messages each name the finding."""
    def register(checks):
        @functools.wraps(checks)
        def claim(data):
            return _failures(name, checks(data))

        FINDINGS[name] = Finding(name, title, tuple(arms), run, claim)
        return claim

    return register


def registry_keys():
    """Every registry key: the figure numbers, then the finding names."""
    return [*sorted(FIGURES), *FINDINGS]


def table_name(key):
    """The checked-in table file of a registry key, under
    ``benchmarks/results/``."""
    return f"figure{key:02d}.txt" if isinstance(key, int) else f"{key}.txt"


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



# ---- findings beyond the paper's figures ---------------------------------

#: Table 2 at the contention-heavy mpl the policy findings share.
_TABLE2_MPL100 = SimulationParameters.table2(mpl=100)

#: Fixed restart delays spanning four orders of magnitude around one
#: transaction time (~0.5 s of pure service at this operating point).
_RESTART_DELAYS = (0.05, 0.5, 2.0, 10.0, 60.0)


def _infinite_mpl100(**changes):
    """Infinite resources at mpl 100: the regime the paper says is most
    delay-sensitive."""
    return SimulationParameters.table2(
        num_cpus=None, num_disks=None, mpl=100, **changes
    )


@_finding(
    "restart_delay",
    "Immediate-restart under fixed restart delays vs. the adaptive "
    "delay (infinite resources, mpl 100)",
    [
        *(
            (f"fixed {delay:g} s",
             _infinite_mpl100(
                 restart_delay_mode="fixed_all", restart_delay=delay
             ),
             "immediate_restart")
            for delay in _RESTART_DELAYS
        ),
        ("adaptive", _infinite_mpl100(), "immediate_restart"),
    ],
)
def claim_restart_delay(data):
    """restart_delay — the sensitivity analysis behind the paper's
    adaptive delay.

    The paper chose the adaptive delay after "a sensitivity analysis
    that showed us that the performance of immediate-restarts is
    sensitive to the restart delay time, particularly in the infinite
    resource case ... a delay of about one transaction time is best,
    and throughput begins to drop off rapidly when the delay exceeds
    more than a few transaction times."
    """
    fixed = {
        label: result.throughput
        for label, _, result in data.arms if label != "adaptive"
    }
    labels = list(fixed)
    best = max(fixed, key=fixed.get)
    # The optimum sits in the around-one-transaction-time region, not
    # at the extremes.
    yield best not in (labels[0], labels[-1]), (
        f"optimum delay should be interior, got {best}"
    )
    # Very large delays drop off hard.
    yield fixed[labels[-1]] < 0.5 * fixed[best], (
        f"the {labels[-1]} delay should drop throughput below half of "
        f"the {best} optimum"
    )
    # The adaptive policy is competitive with the fixed optimum.
    yield data["adaptive"].throughput > 0.7 * fixed[best], (
        f"the adaptive delay should reach 70% of the {best} optimum"
    )


@_finding(
    "victim_policy",
    "Deadlock-victim selection for blocking (Table 2, mpl 100)",
    [
        (policy, _TABLE2_MPL100,
         functools.partial(BlockingCC, victim_policy=policy))
        for policy in ("youngest", "oldest", "requester")
    ],
)
def claim_victim_policy(data):
    """victim_policy — the paper restarts "the youngest transaction in
    the deadlock cycle".

    Youngest-victim wastes the least work (the youngest transaction
    has, in expectation, invested the least), so it should not lose to
    oldest-victim; every policy must make progress.
    """
    youngest = data["youngest"].throughput
    for label, _, result in data.arms:
        yield result.totals["commits"] > 50, f"{label} barely commits"
        yield result.throughput > 0.5 * youngest, (
            f"{label} should reach half of youngest's throughput"
        )
    # The paper's choice does not lose to oldest-victim (which
    # maximizes wasted work) beyond noise.
    yield youngest >= 0.9 * data["oldest"].throughput, (
        "youngest should not lose to oldest by more than 10%"
    )


#: The paper's three algorithms, then the extensions.
_ROSTER = (
    "blocking", "immediate_restart", "optimistic",
    "basic_to", "mvto", "wound_wait", "wait_die",
)


@_finding(
    "extensions",
    "The extension algorithms vs. the paper's three (Table 2, mpl 25 "
    "and 100)",
    [
        (f"mpl {mpl}", SimulationParameters.table2(mpl=mpl), algorithm)
        for mpl in (25, 100)
        for algorithm in _ROSTER
    ],
)
def claim_extensions(data):
    """extensions — the full roster against the survey's locking vs.
    timestamp-ordering comparisons [Gall82, Lin83].

    At moderate mpl every algorithm lands in one throughput band;
    blocking has the best throughput at both operating points; the
    deadlock-prevention variants (wound-wait, wait-die) behave like
    blocking with extra restarts, not worse than immediate-restart;
    MVTO's reads never block.
    """
    def tps(mpl, algorithm):
        return data[f"mpl {mpl}", algorithm].throughput

    # Everyone is productive at moderate contention, within a band.
    moderate = [tps(25, algorithm) for algorithm in _ROSTER]
    yield min(moderate) > 0.6 * max(moderate), (
        "every algorithm should be within 60% of the best at mpl 25"
    )
    for mpl in (25, 100):
        best = max(tps(mpl, algorithm) for algorithm in _ROSTER)
        yield tps(mpl, "blocking") >= 0.93 * best, (
            f"blocking should be within 7% of the best at mpl {mpl}"
        )
    # The prevention variants block like 2PL but also restart.
    for variant in ("wound_wait", "wait_die"):
        yield tps(100, variant) >= 0.85 * tps(100, "immediate_restart"), (
            f"{variant} should reach 85% of immediate-restart at mpl 100"
        )
    for mpl in (25, 100):
        yield data[f"mpl {mpl}", "mvto"].mean("block_ratio") == 0.0, (
            f"mvto must never block a read (mpl {mpl})"
        )


#: Multiprogramming levels of the static-vs-dynamic locking finding.
_LOCKING_MPLS = (5, 25, 100, 200)


@_finding(
    "static_locking",
    "Static (predeclared) vs. dynamic two-phase locking (Table 2)",
    [
        (f"mpl {mpl}", SimulationParameters.table2(mpl=mpl), algorithm)
        for algorithm in ("blocking", "static_locking")
        for mpl in _LOCKING_MPLS
    ],
)
def claim_static_locking(data):
    """static_locking — the models this paper descends from [Ries77,
    Ries79] locked statically; its Blocking algorithm is dynamic 2PL.

    Static locking never restarts (ordered predeclared acquisition is
    deadlock-free); dynamic locking restarts deadlock victims; neither
    collapses relative to the other.
    """
    for mpl in _LOCKING_MPLS:
        static = data[f"mpl {mpl}", "static_locking"]
        dynamic = data[f"mpl {mpl}", "blocking"]
        yield static.totals["restarts"] == 0, (
            f"static locking must never restart (mpl {mpl})"
        )
        yield static.throughput > 0.4 * dynamic.throughput, (
            f"static locking should reach 40% of dynamic at mpl {mpl}"
        )
        yield dynamic.throughput > 0.4 * static.throughput, (
            f"dynamic locking should reach 40% of static at mpl {mpl}"
        )
    # Dynamic locking pays for its flexibility with deadlock restarts
    # once contention is real.
    yield data["mpl 100", "blocking"].totals["restarts"] > 0, (
        "dynamic locking should restart deadlock victims at mpl 100"
    )


#: (label, hot_fraction, hot_access_prob); None = uniform.
_SKEWS = (
    ("uniform", None, None),
    ("mild 20/50", 0.20, 0.50),
    ("classic 10/80", 0.10, 0.80),
    ("extreme 2/80", 0.02, 0.80),
)


@_finding(
    "hotspot",
    "Hotspot skew as a data-contention knob (Table 2, mpl 50)",
    [
        (label,
         SimulationParameters.table2(
             mpl=50, hot_fraction=fraction, hot_access_prob=prob
         ),
         algorithm)
        for label, fraction, prob in _SKEWS
        for algorithm in ("blocking", "optimistic")
    ],
)
def claim_hotspot(data):
    """hotspot — skew at fixed db_size tunes data contention the way the
    paper's db_size does.

    Conflict ratios rise monotonically with skew; blocking still wins at
    classic 10/80 skew on finite resources; extreme skew drives blocking
    into wait-thrashing — the paper's "blocking thrashes on waits before
    restarts do", reached through the data-contention knob.
    """
    labels = [label for label, _, _ in _SKEWS]
    block_ratios = [
        data[label, "blocking"].mean("block_ratio") for label in labels
    ]
    yield block_ratios == sorted(block_ratios), (
        f"blocking's block ratio should grow with skew: {block_ratios}"
    )
    restart_ratios = [
        data[label, "optimistic"].mean("restart_ratio") for label in labels
    ]
    yield restart_ratios[-1] > 2 * restart_ratios[0], (
        "optimistic's restart ratio should more than double from uniform "
        "to extreme skew"
    )
    # At classic skew the Figure 8 ordering survives ...
    yield data["classic 10/80", "blocking"].throughput > (
        data["classic 10/80", "optimistic"].throughput
    ), "blocking should beat optimistic at classic 10/80 skew"
    # ... but extreme skew makes blocking thrash on waiting.
    extreme = data[labels[-1], "blocking"]
    yield extreme.mean("block_ratio") > 10, (
        f"blocking should exceed 10 blocks/commit at {labels[-1]}"
    )
    yield extreme.throughput < 0.5 * (
        data["classic 10/80", "blocking"].throughput
    ), f"blocking at {labels[-1]} should fall below half of classic 10/80"


#: Smaller database than Table 2: more deadlocks to detect.
_DETECTION_PARAMS = SimulationParameters.table2(mpl=100, db_size=300)

#: Periodic waits-for-graph scan intervals, in seconds.
_DETECTION_INTERVALS = (0.1, 1.0, 5.0)


@_finding(
    "deadlock_detection",
    "On-block vs. periodic deadlock detection for blocking (Table 2, "
    "db_size 300, mpl 100)",
    [
        ("on_block", _DETECTION_PARAMS, "blocking"),
        *(
            (f"periodic {interval:g} s", _DETECTION_PARAMS,
             functools.partial(
                 BlockingCC, detection_mode=DETECT_PERIODIC,
                 detection_interval=interval,
             ))
            for interval in _DETECTION_INTERVALS
        ),
    ],
)
def claim_deadlock_detection(data):
    """deadlock_detection — the paper detects deadlocks "each time a
    transaction blocks"; periodic scans leave a deadlocked group holding
    its locks and slots until the next scan.

    On-block detection is competitive with the best scan (a very fast
    scan can edge it: it picks victims from whole-graph cycles), longer
    scan intervals clearly hurt, and every policy makes progress.
    """
    periodic = [
        data[f"periodic {interval:g} s"].throughput
        for interval in _DETECTION_INTERVALS
    ]
    yield data["on_block"].throughput >= 0.85 * max(periodic), (
        "on-block detection should reach 85% of the best periodic scan"
    )
    yield periodic[-1] < 0.9 * periodic[0], (
        "the slowest scan should lose over 10% to the fastest"
    )
    for label, _, result in data.arms:
        yield result.totals["commits"] > 50, f"{label} barely commits"


#: Write-heavy, so upgrades (and their deadlocks) are frequent.
_UPGRADE_PARAMS = SimulationParameters.table2(mpl=100, write_prob=0.5)


@_finding(
    "upgrade_policy",
    "Read-lock upgrades vs. exclusive locks at first read for blocking "
    "(Table 2, write_prob 0.5, mpl 100)",
    [
        ("upgrade", _UPGRADE_PARAMS, "blocking"),
        ("immediate_exclusive", _UPGRADE_PARAMS,
         functools.partial(
             BlockingCC, write_lock_policy=IMMEDIATE_EXCLUSIVE
         )),
    ],
)
def claim_upgrade_policy(data):
    """upgrade_policy — the paper's locking upgrades read locks at write
    time, which creates upgrade-upgrade deadlocks.

    Taking the exclusive lock at the first read of an object the
    transaction will write removes that deadlock class at the price of
    longer exclusive holds: fewer (or equal) deadlock restarts, and
    neither policy collapses relative to the other.
    """
    upgrade = data["upgrade"]
    immediate = data["immediate_exclusive"]
    yield immediate.throughput > 0.5 * upgrade.throughput, (
        "immediate_exclusive should reach half of upgrade's throughput"
    )
    yield upgrade.throughput > 0.5 * immediate.throughput, (
        "upgrade should reach half of immediate_exclusive's throughput"
    )
    yield immediate.mean("restart_ratio") <= upgrade.mean("restart_ratio"), (
        "immediate_exclusive should not restart more than upgrade"
    )


#: Lock granule counts; 1000 is object-level for Table 2's db_size.
_GRANULES = (1, 10, 100, 1000)


@_finding(
    "granularity",
    "Lock granularity for blocking (Table 2, mpl 25)",
    [
        (f"granules={granules}",
         SimulationParameters.table2(mpl=25, lock_granules=granules),
         "blocking")
        for granules in _GRANULES
    ],
)
def claim_granularity(data):
    """granularity — the Ries & Stonebraker knob [Ries77, Ries79]: how
    many lockable granules should a database have?

    Throughput rises with granule count; one granule serializes the
    writers; contention falls sharply once granules outnumber the
    transaction footprint; and at mpl 25 even 100 granules pays a
    false-sharing penalty against object-level locking.
    """
    results = [data[f"granules={granules}"] for granules in _GRANULES]
    throughputs = [result.throughput for result in results]
    for granules, coarse, fine in zip(
        _GRANULES[1:], throughputs, throughputs[1:]
    ):
        yield fine >= coarse * 0.95, (
            f"throughput should not fall (beyond 5%) at {granules} granules"
        )
    yield throughputs[0] < 0.3 * throughputs[-1], (
        "one granule should fall below 30% of object-level throughput"
    )
    _, ten, hundred, thousand = results
    yield hundred.mean("block_ratio") < 0.5 * ten.mean("block_ratio"), (
        "100 granules should halve the block ratio of 10"
    )
    yield thousand.mean("block_ratio") < 0.2 * hundred.mean("block_ratio"), (
        "object-level locking should cut the block ratio of 100 granules "
        "by 5x"
    )
    yield thousand.mean("restart_ratio") < 0.2 * (
        hundred.mean("restart_ratio")
    ), (
        "object-level locking should cut the restart ratio of 100 "
        "granules by 5x"
    )
    yield thousand.throughput > 1.5 * hundred.throughput, (
        "object-level locking should beat 100 granules by 1.5x"
    )

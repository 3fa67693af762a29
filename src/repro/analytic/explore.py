"""Parameter-space exploration through the calibrated surrogate.

The payoff of the calibrate -> validate pipeline: once the surrogate
tracks simulation to within a few percent on the calibration grid
(:mod:`repro.analytic.calibrate`), parameter spaces five orders of
magnitude too big to simulate become sweepable. A
:class:`ExplorationSpace` is a cross product over the paper's
physical axes (database size, transaction size, disks, CPUs, write
probability, think time) x mpl x algorithm; the explorer streams
through it evaluating :func:`surrogate_prediction` at a few hundred
microseconds per point (>=100k points in well under a minute) and
aggregates two artifacts the paper cares about:

* the **optimal-mpl surface** — for every configuration and
  algorithm, the multiprogramming level that maximizes predicted
  throughput (the paper's central "where does thrashing start"
  question, asked everywhere at once), and
* the **blocking/optimistic crossover frontier** — the configurations
  where the winner flips between the conservative and the aggressive
  algorithm family as contention rises along the database-size axis
  (the paper's headline result, traced across the whole space).

Trust, but verify: every prediction carries the uncertainty score
from :meth:`SurrogatePrediction.uncertainty`. Points beyond the
calibration boundary (or where the solver clamped) are *flagged*, and
the explorer dispatches real simulation spot-checks for the most
uncertain flagged configurations — through the same
:func:`repro.experiments.runner.run_sweep` machinery the paper
experiments use — recording surrogate-vs-simulation divergence next
to the surrogate's claims. Reports persist as JSON via the atomic
persistence layer.
"""

import time
from dataclasses import dataclass, field
from typing import List, Tuple

import json

from repro.analytic.contention import (
    DEFAULT_MAX_INDEX,
    surrogate_prediction,
)
from repro.core import SimulationParameters
from repro.experiments.configs import ExperimentConfig
from repro.experiments.persistence import atomic_write_text
from repro.experiments.runner import QUICK_RUN, run_sweep
from repro.stats import abs_relative_error

#: The two algorithm families whose crossover the frontier traces.
FRONTIER_PAIR = ("blocking", "optimistic")

#: Hard cap on flagged points retained verbatim in a report (the
#: *count* is always exact; the list keeps the most uncertain ones).
MAX_FLAGGED_RETAINED = 64


@dataclass(frozen=True)
class ExplorationSpace:
    """A cross product of configuration axes to sweep.

    ``size()`` counts (configuration, algorithm, mpl) evaluations.
    Axis values land on :meth:`SimulationParameters.with_changes`;
    ``min_size`` follows ``max_size`` down so the transaction-size
    distribution stays valid at small sizes.
    """

    db_sizes: Tuple[int, ...]
    max_sizes: Tuple[int, ...]
    num_disks: Tuple[int, ...]
    num_cpus: Tuple[int, ...]
    write_probs: Tuple[float, ...]
    ext_think_times: Tuple[float, ...]
    mpls: Tuple[int, ...]
    algorithms: Tuple[str, ...]

    def __post_init__(self):
        for name in (
            "db_sizes", "max_sizes", "num_disks", "num_cpus",
            "write_probs", "ext_think_times", "mpls", "algorithms",
        ):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")

    def config_count(self):
        return (
            len(self.db_sizes) * len(self.max_sizes)
            * len(self.num_disks) * len(self.num_cpus)
            * len(self.write_probs) * len(self.ext_think_times)
        )

    def size(self):
        return (
            self.config_count() * len(self.mpls) * len(self.algorithms)
        )

    def configurations(self, base=None):
        """Yields ``(axes_dict, params)`` for every configuration."""
        base = base or SimulationParameters.table2()
        for db_size in self.db_sizes:
            for max_size in self.max_sizes:
                min_size = min(base.min_size, max_size)
                for disks in self.num_disks:
                    for cpus in self.num_cpus:
                        for write_prob in self.write_probs:
                            for think in self.ext_think_times:
                                axes = {
                                    "db_size": db_size,
                                    "max_size": max_size,
                                    "num_disks": disks,
                                    "num_cpus": cpus,
                                    "write_prob": write_prob,
                                    "ext_think_time": think,
                                }
                                yield axes, base.with_changes(
                                    min_size=min_size, **axes
                                )

    def as_dict(self):
        return {
            "db_sizes": list(self.db_sizes),
            "max_sizes": list(self.max_sizes),
            "num_disks": list(self.num_disks),
            "num_cpus": list(self.num_cpus),
            "write_probs": list(self.write_probs),
            "ext_think_times": list(self.ext_think_times),
            "mpls": list(self.mpls),
            "algorithms": list(self.algorithms),
        }


def default_space():
    """The standard exploration space: 113,400 surrogate evaluations.

    5,400 configurations x 7 mpls x 3 algorithms — the full cross of
    the paper's contention and resource axes, impossibly expensive to
    simulate (a quick-profile simulation of every point would take
    around four days; the surrogate does it in about half a minute).
    """
    return ExplorationSpace(
        db_sizes=(250, 500, 1000, 2000, 4000, 8000),
        max_sizes=(4, 8, 12, 16, 24),
        # The disk/CPU axes deliberately reach the paper's
        # resource-rich regime (25 disks, 10 CPUs): that is where
        # restarts become cheap and the blocking/optimistic winner
        # flips.
        num_disks=(1, 2, 8, 25),
        num_cpus=(1, 2, 10),
        write_probs=(0.0, 0.25, 0.5, 0.75, 1.0),
        ext_think_times=(0.5, 1.0, 2.0),
        mpls=(5, 10, 25, 50, 75, 100, 200),
        algorithms=("blocking", "immediate_restart", "optimistic"),
    )


def smoke_space():
    """A tiny space for CI smoke runs (36 evaluations)."""
    return ExplorationSpace(
        db_sizes=(300, 2000),
        max_sizes=(12,),
        num_disks=(2,),
        num_cpus=(1,),
        write_probs=(0.25,),
        ext_think_times=(1.0,),
        mpls=(5, 25, 100),
        algorithms=("blocking", "immediate_restart", "optimistic"),
    )


@dataclass
class ExplorationReport:
    """Everything one exploration run learned."""

    space: dict
    evaluations: int
    elapsed_seconds: float
    max_index: float
    threshold: float
    #: One record per configuration: its axes, each algorithm's
    #: optimal mpl (the optimal-mpl surface), and the winner overall
    #: plus within the blocking/optimistic pair.
    optimal: List[dict] = field(default_factory=list)
    #: Winner flips along the database-size (contention) axis within
    #: the blocking/optimistic pair.
    crossovers: List[dict] = field(default_factory=list)
    #: Exact number of evaluations whose uncertainty exceeded the
    #: threshold (the retained list below is capped).
    flagged_count: int = 0
    flagged: List[dict] = field(default_factory=list)
    #: Simulation spot-checks of the most uncertain flagged points.
    spot_checks: List[dict] = field(default_factory=list)

    def to_json(self):
        return json.dumps(
            {
                "space": self.space,
                "evaluations": self.evaluations,
                "elapsed_seconds": self.elapsed_seconds,
                "max_index": self.max_index,
                "threshold": self.threshold,
                "optimal": self.optimal,
                "crossovers": self.crossovers,
                "flagged_count": self.flagged_count,
                "flagged": self.flagged,
                "spot_checks": self.spot_checks,
            },
            indent=2,
            sort_keys=True,
        )

    def save(self, path):
        atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            return cls(**json.loads(handle.read()))

    def summary(self):
        """A short human-readable digest (the CLI prints this)."""
        lines = [
            f"explored {self.evaluations} evaluations in "
            f"{self.elapsed_seconds:.1f}s "
            f"({1e6 * self.elapsed_seconds / max(self.evaluations, 1):.0f}"
            f" us/point)",
            f"configurations: {len(self.optimal)}  "
            f"crossover flips along db_size: {len(self.crossovers)}",
            f"flagged beyond calibration boundary: {self.flagged_count} "
            f"(threshold {self.threshold:g}, max index "
            f"{self.max_index:g})",
        ]
        wins = {}
        for record in self.optimal:
            wins[record["bo_winner"]] = wins.get(
                record["bo_winner"], 0
            ) + 1
        pair = " vs ".join(FRONTIER_PAIR)
        lines.append(
            f"{pair} wins: "
            + ", ".join(
                f"{name}={count}" for name, count in sorted(wins.items())
            )
        )
        for check in self.spot_checks:
            lines.append(
                f"spot-check {check['algorithm']} mpl={check['mpl']} "
                f"db={check['axes']['db_size']}: "
                f"sim={check['simulated']:.3f} "
                f"pred={check['predicted']:.3f} "
                f"err={check['abs_rel_error']:.1%}"
            )
        return "\n".join(lines)


def explore(space=None, coeffs=None, max_index=None, threshold=1.0,
            spot_check_budget=0, run=None, base=None, progress=None,
            workers=1):
    """Sweep ``space`` through the surrogate; spot-check what it flags.

    ``coeffs`` maps algorithm -> CorrectionCoefficients (None uses the
    baked-in calibrated defaults); ``max_index`` is the calibration
    boundary for the uncertainty score (None uses the baked-in one).
    ``spot_check_budget`` caps how many flagged points are re-checked
    with real simulation (0 disables; checks reuse ``run_sweep`` with
    the ``run`` profile, default QUICK_RUN).
    """
    space = space or default_space()
    if max_index is None:
        max_index = DEFAULT_MAX_INDEX
    started = time.perf_counter()
    evaluations = 0
    optimal = []
    flagged_count = 0
    flagged = []
    for axes, params in space.configurations(base=base):
        # One parameter set per mpl, shared by every algorithm.
        points = [(mpl, params.with_changes(mpl=mpl)) for mpl in space.mpls]
        best = {}
        for algorithm in space.algorithms:
            coefficients = None if coeffs is None else coeffs[algorithm]
            best_mpl = None
            best_prediction = None
            worst_uncertainty = 0.0
            for mpl, point in points:
                prediction = surrogate_prediction(
                    point, algorithm, coefficients
                )
                evaluations += 1
                uncertainty = prediction.uncertainty(max_index)
                if uncertainty > threshold:
                    flagged_count += 1
                    flagged.append(
                        {
                            "axes": axes,
                            "algorithm": algorithm,
                            "mpl": mpl,
                            "predicted": prediction.throughput,
                            "uncertainty": uncertainty,
                        }
                    )
                if uncertainty > worst_uncertainty:
                    worst_uncertainty = uncertainty
                if (
                    best_prediction is None
                    or prediction.throughput
                    > best_prediction.throughput
                ):
                    best_mpl = mpl
                    best_prediction = prediction
            best[algorithm] = {
                "mpl": best_mpl,
                "throughput": best_prediction.throughput,
                "uncertainty": worst_uncertainty,
            }
        record = dict(axes)
        record["best"] = best
        record["winner"] = max(
            space.algorithms, key=lambda a: best[a]["throughput"]
        )
        if all(a in best for a in FRONTIER_PAIR):
            first, second = FRONTIER_PAIR
            record["bo_winner"] = (
                first
                if best[first]["throughput"]
                >= best[second]["throughput"]
                else second
            )
        else:
            record["bo_winner"] = record["winner"]
        optimal.append(record)
        if progress is not None and len(optimal) % 500 == 0:
            progress(
                f"[explore] {len(optimal)}/{space.config_count()} "
                f"configurations, {flagged_count} flagged"
            )
    # Retain only the most uncertain flagged points verbatim.
    flagged.sort(key=lambda f: -f["uncertainty"])
    retained = flagged[:MAX_FLAGGED_RETAINED]
    elapsed = time.perf_counter() - started

    report = ExplorationReport(
        space=space.as_dict(),
        evaluations=evaluations,
        elapsed_seconds=elapsed,
        max_index=max_index,
        threshold=threshold,
        optimal=optimal,
        crossovers=_crossovers(optimal),
        flagged_count=flagged_count,
        flagged=retained,
        spot_checks=[],
    )
    if spot_check_budget > 0 and retained:
        report.spot_checks = _spot_check(
            retained[:spot_check_budget], coeffs, run=run, base=base,
            progress=progress, workers=workers,
        )
    return report


def _crossovers(optimal):
    """Winner flips between FRONTIER_PAIR along the db_size axis.

    Groups the optimal-mpl records by every axis except ``db_size``,
    orders each group by database size (descending contention), and
    records each adjacent pair whose blocking/optimistic winner
    differs — the crossover frontier.
    """
    groups = {}
    for record in optimal:
        key = tuple(
            (axis, value)
            for axis, value in sorted(record.items())
            if axis not in ("db_size", "best", "winner", "bo_winner")
        )
        groups.setdefault(key, []).append(record)
    crossovers = []
    for key, records in sorted(groups.items()):
        records.sort(key=lambda r: r["db_size"])
        for low, high in zip(records, records[1:]):
            if low["bo_winner"] != high["bo_winner"]:
                crossovers.append(
                    {
                        "axes": dict(key),
                        "db_low": low["db_size"],
                        "winner_low": low["bo_winner"],
                        "db_high": high["db_size"],
                        "winner_high": high["bo_winner"],
                    }
                )
    return crossovers


def _spot_check(points, coeffs, run=None, base=None, progress=None,
                workers=1):
    """Simulate the flagged points and record the divergence."""
    run = run or QUICK_RUN
    base = base or SimulationParameters.table2()
    checks = []
    for index, point in enumerate(points):
        axes = point["axes"]
        params = base.with_changes(
            min_size=min(base.min_size, axes["max_size"]), **axes
        )
        algorithm = point["algorithm"]
        mpl = point["mpl"]
        config = ExperimentConfig(
            experiment_id=f"spotcheck_{index}",
            title=f"Surrogate spot-check {index}",
            params=params,
            algorithms=(algorithm,),
            mpls=(mpl,),
        )
        sweep = run_sweep(
            config, run=run, progress=progress, workers=workers
        )
        result = sweep.results.get((algorithm, mpl))
        if result is None:
            checks.append(
                {**point, "simulated": None, "abs_rel_error": None,
                 "status": "failed"}
            )
            continue
        checks.append(
            {
                **point,
                "simulated": result.throughput,
                "abs_rel_error": abs_relative_error(
                    point["predicted"], result.throughput
                ),
                "status": "ok",
            }
        )
    return checks

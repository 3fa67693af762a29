"""Calibration: fit the surrogate's coefficients against simulation.

The GVCUTV discipline applied to the analytic layer: the *equations*
(:mod:`repro.analytic.contention`) are only trusted after they are
*validated* against the independent discrete-event implementation of
the same model. This module runs that validation loop end to end:

1. **Simulate** a small seeded grid (Table 2 variations spanning mild
   to heavy data contention) through :func:`run_sweep` — the same
   resilient runner the real experiments use, so seeds, batching and
   checkpointing behave identically;
2. **Fit** each algorithm's :class:`CorrectionCoefficients` by
   deterministic multiplicative coordinate descent on the squared
   log-ratio of predicted vs. simulated throughput (symmetric in
   over-/under-prediction, scale-free across scenarios);
3. **Report** per-point divergence (:mod:`repro.stats.divergence`)
   plus the largest contention index the grid covered — the
   extrapolation boundary :mod:`repro.analytic.explore` uses to decide
   which surrogate predictions deserve a simulation spot-check.

The whole calibration is reproducible: same seed, same grid, same
run profile -> bit-identical report (the fit itself is closed-form
deterministic arithmetic, and sweep seeds derive from the grid key).

Fitted defaults are baked into
:data:`repro.analytic.contention.DEFAULT_COEFFS`; re-run
``repro-experiments calibrate`` after any change to the contention
model and update them from the emitted report.
"""

import json
from dataclasses import dataclass
from typing import Dict, List

from repro.analytic.contention import (
    CorrectionCoefficients,
    DEFAULT_COEFFS,
    surrogate_prediction,
)
from repro.core import SimulationParameters
from repro.experiments.configs import ExperimentConfig
from repro.experiments.persistence import atomic_write_text
from repro.experiments.runner import QUICK_RUN, run_sweep
from repro.stats import abs_relative_error, log_ratio, summarize_divergence

#: Algorithms the calibration fits (noop needs no correction: its
#: coefficients are zero by construction).
CALIBRATED_ALGORITHMS = ("blocking", "immediate_restart", "optimistic")

#: Multiplicative step schedule of the coordinate descent: each round
#: tries every factor on each coordinate and keeps improvements; the
#: shrinking schedule gives coarse-to-fine search without randomness.
FIT_FACTORS = (4.0, 2.0, 1.4, 1.15, 1.05, 1.02)
FIT_ROUNDS = 3
COEFF_FLOOR = 1e-3
COEFF_CEIL = 100.0


def calibration_grid(base=None):
    """The seeded calibration scenarios.

    Returns ``[(scenario_id, params, mpls)]``: Table 2 itself plus a
    hot (small database) and a cool (large database, more disks)
    variant, with mpl points on both sides of each algorithm's
    throughput peak. Deliberately small — calibration re-simulates it
    on every run.
    """
    base = base or SimulationParameters.table2()
    return [
        ("table2", base, (5, 10, 25, 50)),
        ("hot", base.with_changes(db_size=300), (5, 10, 25, 50)),
        ("cool", base.with_changes(db_size=3000, num_disks=4),
         (10, 50)),
        ("write_heavy", base.with_changes(db_size=500, write_prob=0.75),
         (5, 10, 25)),
    ]


@dataclass(frozen=True)
class CalibrationPoint:
    """One grid point: simulation truth vs. calibrated prediction."""

    scenario: str
    algorithm: str
    mpl: int
    simulated: float
    predicted: float
    abs_rel_error: float
    contention_index: float

    def as_dict(self):
        return {
            "scenario": self.scenario,
            "algorithm": self.algorithm,
            "mpl": self.mpl,
            "simulated": self.simulated,
            "predicted": self.predicted,
            "abs_rel_error": self.abs_rel_error,
            "contention_index": self.contention_index,
        }


@dataclass
class CalibrationReport:
    """Fitted coefficients plus the per-point validation evidence."""

    coefficients: Dict[str, CorrectionCoefficients]
    points: List[CalibrationPoint]
    #: Largest contention index the grid covered: the surrogate's
    #: extrapolation boundary (see SurrogatePrediction.uncertainty).
    max_index: float
    seed: int

    def points_for(self, algorithm):
        return [p for p in self.points if p.algorithm == algorithm]

    def divergence(self, algorithm=None):
        """DivergenceSummary over all points (or one algorithm's)."""
        points = (
            self.points_for(algorithm) if algorithm else self.points
        )
        return summarize_divergence(p.abs_rel_error for p in points)

    def to_json(self):
        return json.dumps(
            {
                "seed": self.seed,
                "max_index": self.max_index,
                "coefficients": {
                    name: {"alpha": c.alpha, "beta": c.beta}
                    for name, c in sorted(self.coefficients.items())
                },
                "points": [p.as_dict() for p in self.points],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls(
            coefficients={
                name: CorrectionCoefficients(c["alpha"], c["beta"])
                for name, c in data["coefficients"].items()
            },
            points=[CalibrationPoint(**p) for p in data["points"]],
            max_index=data["max_index"],
            seed=data["seed"],
        )

    def save(self, path):
        atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def simulate_grid(run=None, grid=None, progress=None, workers=1):
    """Ground-truth throughputs for the calibration grid.

    Returns ``[(scenario, params, algorithm, mpl, throughput)]`` in
    deterministic grid order. Failed sweep points (the runner degrades
    rather than raises) are skipped — the fit uses whatever points
    simulation actually produced.
    """
    run = run or QUICK_RUN
    samples = []
    for scenario, params, mpls in grid or calibration_grid():
        config = ExperimentConfig(
            experiment_id=f"calibrate_{scenario}",
            title=f"Surrogate calibration grid: {scenario}",
            params=params,
            algorithms=CALIBRATED_ALGORITHMS,
            mpls=tuple(mpls),
        )
        sweep = run_sweep(
            config, run=run, progress=progress, workers=workers
        )
        for algorithm in CALIBRATED_ALGORITHMS:
            for mpl in mpls:
                result = sweep.results.get((algorithm, mpl))
                if result is not None and result.throughput > 0.0:
                    samples.append(
                        (scenario, params, algorithm, mpl,
                         result.throughput)
                    )
    return samples


def _objective(samples, coeffs):
    """Sum of squared log-ratios of predicted vs simulated throughput."""
    total = 0.0
    for _, params, algorithm, mpl, simulated in samples:
        predicted = surrogate_prediction(
            params, algorithm, coeffs, mpl
        ).throughput
        if predicted <= 0.0:
            return float("inf")
        total += log_ratio(predicted, simulated) ** 2
    return total


def fit_coefficients(samples, start=None):
    """Deterministic coordinate descent over (alpha, beta).

    ``samples`` are one algorithm's grid points. Coarse-to-fine
    multiplicative steps (:data:`FIT_FACTORS` x :data:`FIT_ROUNDS`),
    no randomness, bounded to [COEFF_FLOOR, COEFF_CEIL]: the same
    samples always fit to the same coefficients.
    """
    start = start or CorrectionCoefficients(1.0, 1.0)
    best = [start.alpha, start.beta]
    best_score = _objective(samples, CorrectionCoefficients(*best))
    for _ in range(FIT_ROUNDS):
        for factor in FIT_FACTORS:
            improved = True
            while improved:
                improved = False
                for coord in (0, 1):
                    for direction in (factor, 1.0 / factor):
                        trial = list(best)
                        trial[coord] = min(
                            COEFF_CEIL,
                            max(COEFF_FLOOR, trial[coord] * direction),
                        )
                        if trial == best:
                            continue
                        score = _objective(
                            samples, CorrectionCoefficients(*trial)
                        )
                        if score < best_score - 1e-15:
                            best, best_score = trial, score
                            improved = True
    return CorrectionCoefficients(*best)


def run_calibration(run=None, grid=None, fit=True, progress=None,
                    workers=1):
    """Simulate the grid, fit coefficients, report divergence.

    ``fit=False`` skips the descent and validates the current
    :data:`DEFAULT_COEFFS` instead (a pure validation run).
    """
    run = run or QUICK_RUN
    samples = simulate_grid(
        run=run, grid=grid, progress=progress, workers=workers
    )
    if not samples:
        raise RuntimeError(
            "calibration grid produced no simulation points"
        )
    coefficients = {"noop": DEFAULT_COEFFS["noop"]}
    for algorithm in CALIBRATED_ALGORITHMS:
        subset = [s for s in samples if s[2] == algorithm]
        if not subset:
            coefficients[algorithm] = DEFAULT_COEFFS[algorithm]
            continue
        if fit:
            coefficients[algorithm] = fit_coefficients(subset)
        else:
            coefficients[algorithm] = DEFAULT_COEFFS[algorithm]

    points = []
    max_index = 0.0
    for scenario, params, algorithm, mpl, simulated in samples:
        prediction = surrogate_prediction(
            params, algorithm, coefficients[algorithm], mpl
        )
        max_index = max(max_index, prediction.contention_index)
        points.append(
            CalibrationPoint(
                scenario=scenario,
                algorithm=algorithm,
                mpl=mpl,
                simulated=simulated,
                predicted=prediction.throughput,
                abs_rel_error=abs_relative_error(
                    prediction.throughput, simulated
                ),
                contention_index=prediction.contention_index,
            )
        )
    return CalibrationReport(
        coefficients=coefficients,
        points=points,
        max_index=max_index,
        seed=run.seed,
    )

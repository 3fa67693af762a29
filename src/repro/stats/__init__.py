"""Output-analysis substrate: running statistics, batch means, confidence intervals.

This package is dependency-free (the Student-t quantiles the harness uses
are embedded as scipy's exact floats; scipy is imported only for an
untabulated quantile, with interpolation in the table as fallback) and
contains no simulation logic, so both the DES kernel and the model layers
can build on it.

The centerpiece is :class:`repro.stats.batch_means.BatchMeansAnalyzer`, an
implementation of the modified batch-means method the paper attributes to
[Sarg76]: the run is divided into batches, the first batch(es) are discarded
as warmup, and a Student-t confidence interval is formed from the per-batch
means.
"""

from repro.stats.welford import Welford
from repro.stats.timeweighted import TimeWeighted
from repro.stats.confidence import ConfidenceInterval, t_quantile
from repro.stats.batch_means import BatchMeansAnalyzer, BatchSeries
from repro.stats.divergence import (
    DivergenceSummary,
    abs_relative_error,
    log_ratio,
    median,
    summarize_divergence,
)
from repro.stats.quantile import P2Quantile
from repro.stats.stability import StabilityReport, assess_stability

__all__ = [
    "Welford",
    "TimeWeighted",
    "ConfidenceInterval",
    "t_quantile",
    "BatchMeansAnalyzer",
    "BatchSeries",
    "DivergenceSummary",
    "abs_relative_error",
    "log_ratio",
    "median",
    "summarize_divergence",
    "P2Quantile",
    "StabilityReport",
    "assess_stability",
]

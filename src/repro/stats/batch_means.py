"""The modified batch-means method used by the paper's statistical analysis.

The paper runs each simulation for 20 batches "with a large batch time" and
reports 90% confidence intervals on throughput of typically a few percent.
Batch means converts a single long run with autocorrelated output into
approximately independent samples: the run is split into contiguous batches,
early batches are discarded as warmup (the "modified" part), and a Student-t
interval is formed over the per-batch means.
"""

import math
from dataclasses import dataclass, field
from typing import List

from repro.stats.confidence import interval_from_samples


@dataclass
class BatchSeries:
    """Per-batch observations of one output variable."""

    name: str
    values: List[float] = field(default_factory=list)

    def add(self, value):
        self.values.append(value)

    def __len__(self):
        return len(self.values)

    @property
    def mean(self):
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)

    @property
    def variance(self):
        n = len(self.values)
        if n < 2:
            return 0.0
        m = self.mean
        return sum((v - m) ** 2 for v in self.values) / (n - 1)

    @property
    def std(self):
        return math.sqrt(self.variance)

    def interval(self, confidence=0.90):
        """Confidence interval for the grand mean over the batch means."""
        if not self.values:
            raise ValueError(f"series {self.name!r} has no batches")
        return interval_from_samples(self.values, confidence)

    def lag1_autocorrelation(self):
        """Lag-1 autocorrelation of the batch means.

        A large positive value signals that batches are too short to be
        treated as independent; the analyzer surfaces it as a diagnostic.
        """
        n = len(self.values)
        if n < 3:
            return 0.0
        m = self.mean
        denom = sum((v - m) ** 2 for v in self.values)
        if denom == 0.0:
            return 0.0
        num = sum(
            (a - m) * (b - m) for a, b in zip(self.values, self.values[1:])
        )
        return num / denom


class BatchMeansAnalyzer:
    """Collects per-batch values for many variables and summarizes them.

    Usage: call :meth:`record` once per batch with a mapping of variable
    name to the batch's value, then ask for :meth:`interval` or
    :meth:`summary`. ``warmup_batches`` initial batches are recorded but
    excluded from analysis (the modified batch-means discipline).
    """

    def __init__(self, warmup_batches=1, confidence=0.90):
        if warmup_batches < 0:
            raise ValueError("warmup_batches must be >= 0")
        if not 0.0 < confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        self.warmup_batches = warmup_batches
        self.confidence = confidence
        self._batches_seen = 0
        self._series = {}

    @property
    def batches_recorded(self):
        """Number of post-warmup batches retained for analysis."""
        return max(0, self._batches_seen - self.warmup_batches)

    def record(self, values):
        """Record one batch: ``values`` maps variable name -> batch value."""
        self._batches_seen += 1
        if self._batches_seen <= self.warmup_batches:
            return
        for name, value in values.items():
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = BatchSeries(name)
            series.add(value)

    def series(self, name):
        """The retained :class:`BatchSeries` for ``name``."""
        try:
            return self._series[name]
        except KeyError:
            raise KeyError(
                f"no batch series named {name!r}; "
                f"have {sorted(self._series)}"
            ) from None

    def names(self):
        return sorted(self._series)

    def mean(self, name):
        return self.series(name).mean

    def interval(self, name, confidence=None):
        # ``is None`` sentinel, not truthiness: an explicit (invalid)
        # falsy confidence must be rejected, not silently defaulted.
        if confidence is None:
            confidence = self.confidence
        elif not 0.0 < confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        return self.series(name).interval(confidence)

    def summary(self):
        """Mapping of variable name -> ConfidenceInterval for all series."""
        return {
            name: series.interval(self.confidence)
            for name, series in self._series.items()
        }

    def diagnostics(self):
        """Mapping of variable name -> lag-1 autocorrelation of its batches."""
        return {
            name: series.lag1_autocorrelation()
            for name, series in self._series.items()
        }

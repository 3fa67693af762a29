"""Student-t confidence intervals.

scipy gives exact t quantiles when importable; it is imported by the
first :func:`t_quantile` call, not with this module, so code that never
builds an interval never pays for loading it. Without scipy an embedded
two-sided table (the classic textbook values) with interpolation is used,
so the core library carries no hard third-party dependency.
"""

import functools
import math
from dataclasses import dataclass

# Two-sided critical values t_{df, 1 - alpha/2} for the confidence levels the
# harness uses. Rows are degrees of freedom; the df=inf row is the normal
# quantile. Values from standard t tables.
_T_TABLE = {
    0.90: {
        1: 6.314, 2: 2.920, 3: 2.353, 4: 2.132, 5: 2.015, 6: 1.943,
        7: 1.895, 8: 1.860, 9: 1.833, 10: 1.812, 12: 1.782, 15: 1.753,
        20: 1.725, 25: 1.708, 30: 1.697, 40: 1.684, 60: 1.671, 120: 1.658,
        math.inf: 1.645,
    },
    0.95: {
        1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
        7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 12: 2.179, 15: 2.131,
        20: 2.086, 25: 2.060, 30: 2.042, 40: 2.021, 60: 2.000, 120: 1.980,
        math.inf: 1.960,
    },
    0.99: {
        1: 63.657, 2: 9.925, 3: 5.841, 4: 4.604, 5: 4.032, 6: 3.707,
        7: 3.499, 8: 3.355, 9: 3.250, 10: 3.169, 12: 3.055, 15: 2.947,
        20: 2.845, 25: 2.787, 30: 2.750, 40: 2.704, 60: 2.660, 120: 2.617,
        math.inf: 2.576,
    },
}


@functools.cache
def _student_t():
    """scipy's Student-t distribution, imported on the first call; None
    when scipy is not importable."""
    try:
        from scipy.stats import t
    except ImportError:
        return None
    return t


def t_quantile(confidence, df):
    """Two-sided Student-t critical value for the given confidence level.

    ``confidence`` is the total coverage (e.g. 0.90 for the paper's 90%
    intervals); ``df`` the degrees of freedom (> 0).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    student_t = _student_t()
    if student_t is not None:
        return float(student_t.ppf(0.5 + confidence / 2.0, df))
    if confidence not in _T_TABLE:
        raise ValueError(
            "without scipy, only confidence levels "
            f"{sorted(_T_TABLE)} are supported, got {confidence}"
        )
    table = _T_TABLE[confidence]
    if df in table:
        return table[df]
    dfs = sorted(d for d in table if d is not math.inf)
    if df > dfs[-1]:
        # Interpolate in 1/df between the largest tabulated df and infinity.
        lo, hi = dfs[-1], math.inf
        frac = (1.0 / lo - 1.0 / df) / (1.0 / lo)
        return table[lo] + frac * (table[hi] - table[lo])
    for lo, hi in zip(dfs, dfs[1:]):
        if lo < df < hi:
            frac = (df - lo) / (hi - lo)
            return table[lo] + frac * (table[hi] - table[lo])
    raise AssertionError("unreachable")  # pragma: no cover


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval ``mean ± half_width``."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self):
        return self.mean - self.half_width

    @property
    def high(self):
        return self.mean + self.half_width

    @property
    def relative_half_width(self):
        """Half-width as a fraction of the mean (inf for a zero mean)."""
        if self.mean == 0.0:
            return math.inf if self.half_width else 0.0
        return abs(self.half_width / self.mean)

    def contains(self, value):
        return self.low <= value <= self.high

    def __str__(self):
        return (
            f"{self.mean:.4g} ± {self.half_width:.2g} "
            f"({self.confidence:.0%}, n={self.n})"
        )


def interval_from_samples(samples, confidence=0.90):
    """Student-t confidence interval for the mean of i.i.d. ``samples``."""
    n = len(samples)
    if n == 0:
        raise ValueError("need at least one sample")
    mean = sum(samples) / n
    if n == 1:
        return ConfidenceInterval(mean, math.inf, confidence, 1)
    var = sum((x - mean) ** 2 for x in samples) / (n - 1)
    half = t_quantile(confidence, n - 1) * math.sqrt(var / n)
    return ConfidenceInterval(mean, half, confidence, n)

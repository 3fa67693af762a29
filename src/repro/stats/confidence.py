"""Student-t confidence intervals.

The quantiles the harness asks for -- 90%, 95% and 99% coverage at df
1-30, 40, 60, 120 and infinity -- come from an embedded table of the
exact floats scipy returns, so building an interval loads no
third-party module and gives the same answer with or without scipy.
Only an untabulated pair (say df 49, or 80% coverage) imports scipy, at
the first such call; without scipy it is interpolated between table
rows, and an untabulated confidence level is an error.
"""

import functools
import math
from dataclasses import dataclass

# Two-sided critical values t_{df, 1 - alpha/2} for the confidence levels the
# harness uses: every df 1-30, then 40, 60, 120 and infinity (the normal
# quantile). Each entry is the float scipy returns,
# ``float(scipy.stats.t.ppf(0.5 + confidence / 2, df))``, so a tabulated
# pair gives the same interval with or without scipy installed.
_T_TABLE = {
    0.90: {
        1: 6.313751514675037, 2: 2.9199855803537242, 3: 2.3533634348018233,
        4: 2.1318467863266495, 5: 2.0150483733330233, 6: 1.9431802805153042,
        7: 1.8945786050900062, 8: 1.8595480375308973, 9: 1.833112932656237,
        10: 1.8124611228116756, 11: 1.7958848187040433, 12: 1.782287555649319,
        13: 1.7709333959868725, 14: 1.761310135774891, 15: 1.753050355692572,
        16: 1.7458836762762495, 17: 1.7396067260750725, 18: 1.7340636066175388,
        19: 1.7291328115213682, 20: 1.7247182429207866, 21: 1.720742902811878,
        22: 1.7171443743802424, 23: 1.713871527747048, 24: 1.710882079909428,
        25: 1.7081407612518986, 26: 1.7056179197592727, 27: 1.7032884457221265,
        28: 1.7011309342659313, 29: 1.6991270265334972, 30: 1.697260886593957,
        40: 1.683851013335652, 60: 1.6706488649046363, 120: 1.6576508993552352,
        math.inf: 1.6448536269514724,
    },
    0.95: {
        1: 12.706204736174694, 2: 4.302652729749462, 3: 3.1824463052837078,
        4: 2.7764451051977934, 5: 2.5705818356363146, 6: 2.4469118511449786,
        7: 2.364624251592784, 8: 2.306004135204166, 9: 2.262157162798205,
        10: 2.228138851986274, 11: 2.200985160091639, 12: 2.1788128296672284,
        13: 2.1603686564627913, 14: 2.144786687917804, 15: 2.131449545559776,
        16: 2.1199052992212546, 17: 2.1098155778333156, 18: 2.1009220402410382,
        19: 2.0930240544083087, 20: 2.085963447265864, 21: 2.0796138447276795,
        22: 2.0738730679040254, 23: 2.0686576104190486, 24: 2.0638985616280245,
        25: 2.0595385527532972, 26: 2.0555294386428735, 27: 2.0518305164802846,
        28: 2.0484071417952454, 29: 2.045229642132703, 30: 2.0422724563012378,
        40: 2.021075390306273, 60: 2.0002978220142604, 120: 1.9799304050824402,
        math.inf: 1.9599639845400538,
    },
    0.99: {
        1: 63.656741162871526, 2: 9.924843200918287, 3: 5.840909309733355,
        4: 4.604094871349992, 5: 4.032142983555228, 6: 3.7074280213248065,
        7: 3.4994832973504924, 8: 3.355387331333395, 9: 3.249835541592126,
        10: 3.16927267261695, 11: 3.1058065155392804, 12: 3.0545395893929013,
        13: 3.012275838716578, 14: 2.9768427343708344, 15: 2.946712883475238,
        16: 2.9207816224251, 17: 2.8982305196774183, 18: 2.8784404727386077,
        19: 2.8609346064649794, 20: 2.8453397097861077, 21: 2.83135955802305,
        22: 2.8187560606001423, 23: 2.807335683769999, 24: 2.796939504774456,
        25: 2.78743581367697, 26: 2.778714533329683, 27: 2.770682957122211,
        28: 2.763262455461444, 29: 2.756385903670605, 30: 2.7499956535672254,
        40: 2.7044592674331622, 60: 2.6602830288550368,
        120: 2.6174211451068654, math.inf: 2.575829303548901,
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
    table = _T_TABLE.get(confidence)
    if table is not None and df in table:
        return table[df]
    student_t = _student_t()
    if student_t is not None:
        return float(student_t.ppf(0.5 + confidence / 2.0, df))
    if table is None:
        raise ValueError(
            "without scipy, only confidence levels "
            f"{sorted(_T_TABLE)} are supported, got {confidence}"
        )
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

"""Heavy-tailed samplers: moments and degenerate cases.

The lognormal and Pareto samplers are parameterized by *mean* (and CV
or shape), so the moment checks below pin the parameter translation —
getting sigma/mu or x_m wrong shifts the mean by factors, far outside
these tolerances.
"""

import math

import pytest

from repro.des import StreamFactory


def stream(name="s", seed=1234):
    return StreamFactory(seed).stream(name)


def draws(sample, n):
    """``n`` successive draws of ``sample()``."""
    return [sample() for _ in range(n)]


def mean_cv(values):
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var) / mean


N = 100_000


class TestLognormalMoments:
    def test_mean_and_cv_match_the_parameterization(self):
        s = stream()
        values = draws(lambda: s.lognormal(2.0, 2.0), N)
        mean, cv = mean_cv(values)
        assert mean == pytest.approx(2.0, rel=0.05)
        # The CV estimator converges slowly under a heavy tail; a
        # loose band still catches a wrong sigma translation (CV 1 or
        # CV 4 would land far outside).
        assert cv == pytest.approx(2.0, rel=0.25)

    def test_mild_tail_is_tight(self):
        s = stream()
        values = draws(lambda: s.lognormal(10.0, 0.5), N)
        mean, cv = mean_cv(values)
        assert mean == pytest.approx(10.0, rel=0.02)
        assert cv == pytest.approx(0.5, rel=0.05)

    def test_cv_zero_is_deterministic_and_consumes_no_state(self):
        a, b = stream(seed=7), stream(seed=7)
        assert a.lognormal(3.0, 0.0) == 3.0
        # b drew nothing either: the streams stay in lockstep.
        assert a.exponential(1.0) == b.exponential(1.0)

    def test_all_draws_positive(self):
        s = stream()
        assert all(v > 0 for v in draws(lambda: s.lognormal(1.0, 3.0), 1000))


class TestParetoMoments:
    def test_mean_matches_the_parameterization(self):
        # alpha=2.5 keeps the variance finite, so the sample mean
        # converges at the usual rate.
        s = stream()
        values = draws(lambda: s.pareto(2.5, 1.0), N)
        mean, cv = mean_cv(values)
        assert mean == pytest.approx(1.0, rel=0.05)
        # Theoretical CV = sqrt(alpha/(alpha-2))/alpha ~= 0.89; only
        # sanity-band it (the 4th moment is infinite, so the sample CV
        # converges slowly and sits below theory at this n).
        assert 0.6 < cv < 1.2

    def test_draws_never_fall_below_the_scale(self):
        # x_m = mean*(alpha-1)/alpha is the distribution's lower bound.
        s = stream()
        values = draws(lambda: s.pareto(1.5, 3.0), 1000)
        assert min(values) >= 3.0 * (1.5 - 1.0) / 1.5

    def test_shape_at_or_below_one_rejected(self):
        with pytest.raises(ValueError, match="> 1"):
            stream().pareto(1.0, 2.0)
        with pytest.raises(ValueError, match="> 1"):
            stream().pareto(0.5, 2.0)

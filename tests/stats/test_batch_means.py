"""Tests for the modified batch-means analyzer."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats import BatchMeansAnalyzer, BatchSeries


class TestBatchSeries:
    def test_mean_and_variance(self):
        s = BatchSeries("throughput")
        for v in [10.0, 12.0, 14.0]:
            s.add(v)
        assert s.mean == pytest.approx(12.0)
        assert s.variance == pytest.approx(4.0)
        assert s.std == pytest.approx(2.0)
        assert len(s) == 3

    def test_interval_single_batch(self):
        s = BatchSeries("x")
        s.add(5.0)
        ci = s.interval()
        assert ci.mean == 5.0
        assert ci.half_width == math.inf

    def test_interval_known(self):
        s = BatchSeries("x")
        for v in [1.0, 2.0, 3.0, 4.0, 5.0]:
            s.add(v)
        ci = s.interval(confidence=0.90)
        assert ci.mean == pytest.approx(3.0)
        # t_{4, 0.95} = 2.132, se = sqrt(2.5/5)
        assert ci.half_width == pytest.approx(
            2.132 * math.sqrt(0.5), rel=1e-3
        )

    def test_empty_interval_raises(self):
        with pytest.raises(ValueError):
            BatchSeries("x").interval()

    def test_lag1_autocorrelation_alternating(self):
        s = BatchSeries("x")
        for v in [1.0, -1.0] * 10:
            s.add(v)
        assert s.lag1_autocorrelation() < 0

    def test_lag1_autocorrelation_constant_is_zero(self):
        s = BatchSeries("x")
        for _ in range(5):
            s.add(7.0)
        assert s.lag1_autocorrelation() == 0.0


class TestBatchMeansAnalyzer:
    def test_warmup_batches_discarded(self):
        a = BatchMeansAnalyzer(warmup_batches=2)
        a.record({"tps": 100.0})  # warmup: transient
        a.record({"tps": 50.0})   # warmup
        a.record({"tps": 10.0})
        a.record({"tps": 12.0})
        assert a.batches_recorded == 2
        assert a.mean("tps") == pytest.approx(11.0)

    def test_zero_warmup(self):
        a = BatchMeansAnalyzer(warmup_batches=0)
        a.record({"tps": 4.0})
        assert a.mean("tps") == 4.0

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            BatchMeansAnalyzer(warmup_batches=-1)

    def test_multiple_series(self):
        a = BatchMeansAnalyzer(warmup_batches=0)
        a.record({"tps": 1.0, "resp": 10.0})
        a.record({"tps": 3.0, "resp": 30.0})
        assert a.names() == ["resp", "tps"]
        assert a.mean("tps") == pytest.approx(2.0)
        assert a.mean("resp") == pytest.approx(20.0)
        summary = a.summary()
        assert set(summary) == {"tps", "resp"}
        assert summary["tps"].n == 2

    def test_unknown_series_raises_with_hint(self):
        a = BatchMeansAnalyzer(warmup_batches=0)
        a.record({"tps": 1.0})
        with pytest.raises(KeyError, match="tps"):
            a.series("nope")

    def test_diagnostics_keys(self):
        a = BatchMeansAnalyzer(warmup_batches=0)
        for v in [1.0, 2.0, 3.0, 4.0]:
            a.record({"tps": v})
        assert set(a.diagnostics()) == {"tps"}

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3),
            min_size=3,
            max_size=40,
        )
    )
    def test_interval_covers_sample_mean(self, values):
        a = BatchMeansAnalyzer(warmup_batches=0, confidence=0.95)
        for v in values:
            a.record({"x": v})
        ci = a.interval("x")
        mean = sum(values) / len(values)
        assert ci.low <= mean <= ci.high


class TestExplicitConfidence:
    """`interval` must honor an explicit confidence and reject junk.

    The old code used ``confidence or self.confidence``, so an explicit
    falsy value (0, 0.0) was silently replaced by the default instead
    of being rejected.
    """

    def build(self, confidence=0.90):
        a = BatchMeansAnalyzer(warmup_batches=0, confidence=confidence)
        for v in [10.0, 12.0, 14.0, 11.0]:
            a.record({"tps": v})
        return a

    def test_explicit_confidence_is_used(self):
        a = self.build(confidence=0.95)
        narrow = a.interval("tps", confidence=0.90)
        wide = a.interval("tps", confidence=0.99)
        assert narrow.confidence == 0.90
        assert wide.confidence == 0.99
        assert narrow.half_width < wide.half_width

    def test_none_falls_back_to_default(self):
        a = self.build(confidence=0.95)
        assert a.interval("tps").confidence == 0.95
        assert a.interval("tps", confidence=None).confidence == 0.95

    @pytest.mark.parametrize("bad", [0, 0.0, 1.0, 1.5, -0.1])
    def test_invalid_explicit_confidence_rejected(self, bad):
        a = self.build()
        with pytest.raises(ValueError, match="confidence"):
            a.interval("tps", confidence=bad)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_invalid_constructor_confidence_rejected(self, bad):
        with pytest.raises(ValueError, match="confidence"):
            BatchMeansAnalyzer(confidence=bad)

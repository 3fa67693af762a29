"""Unit and property tests for the Welford running-statistics accumulator."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats import Welford

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def make(values):
    w = Welford()
    for v in values:
        w.add(v)
    return w


class TestBasics:
    def test_empty(self):
        w = Welford()
        assert w.count == 0
        assert w.mean == 0.0
        assert w.variance == 0.0
        assert w.std == 0.0
        assert len(w) == 0

    def test_single_value(self):
        w = make([3.5])
        assert w.mean == 3.5
        assert w.variance == 0.0
        assert w.min == 3.5
        assert w.max == 3.5

    def test_known_values(self):
        w = make([2.0, 4.0, 6.0])
        assert w.mean == pytest.approx(4.0)
        assert w.variance == pytest.approx(4.0)
        assert w.std == pytest.approx(2.0)

    def test_min_max(self):
        w = make([5.0, -1.0, 3.0])
        assert w.min == -1.0
        assert w.max == 5.0

    def test_repr_mentions_count(self):
        assert "count=2" in repr(make([1.0, 2.0]))


class TestAgainstNumpy:
    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_matches_numpy(self, xs):
        w = make(xs)
        assert w.mean == pytest.approx(float(np.mean(xs)), abs=1e-6)
        assert w.variance == pytest.approx(
            float(np.var(xs, ddof=1)), rel=1e-6, abs=1e-6
        )

    def test_numerical_stability_large_offset(self):
        # Classic catastrophic-cancellation case for naive sum-of-squares.
        base = 1e9
        xs = [base + d for d in (4.0, 7.0, 13.0, 16.0)]
        w = make(xs)
        assert w.variance == pytest.approx(30.0, rel=1e-6)


class TestSnapshotDelta:
    def test_delta_reconstructs_tail(self):
        w = Welford()
        for v in [1.0, 2.0, 3.0]:
            w.add(v)
        snap = w.snapshot()
        for v in [10.0, 20.0]:
            w.add(v)
        delta = w.delta_since(snap)
        assert delta.count == 2
        assert delta.mean == pytest.approx(15.0)
        assert delta.variance == pytest.approx(50.0)

    def test_delta_empty_window(self):
        w = make([1.0, 2.0])
        delta = w.delta_since(w.snapshot())
        assert delta.count == 0
        assert delta.mean == 0.0

    def test_delta_rejects_future_snapshot(self):
        w = make([1.0])
        snap = w.snapshot()
        snap.add(2.0)
        with pytest.raises(ValueError):
            w.delta_since(snap)

    @given(
        st.lists(finite_floats, min_size=0, max_size=40),
        st.lists(finite_floats, min_size=1, max_size=40),
    )
    def test_delta_matches_direct(self, head, tail):
        w = make(head)
        snap = w.snapshot()
        for v in tail:
            w.add(v)
        delta = w.delta_since(snap)
        direct = make(tail)
        assert delta.count == direct.count
        assert delta.mean == pytest.approx(direct.mean, abs=1e-4)
        assert delta.variance == pytest.approx(
            direct.variance, rel=1e-3, abs=1e-3
        )

    def test_snapshot_is_independent(self):
        w = make([1.0])
        snap = w.snapshot()
        w.add(100.0)
        assert snap.count == 1
        assert snap.mean == 1.0

"""Tests for seeded random streams."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des import RandomStream, StreamFactory


class TestRandomStream:
    def test_reproducible(self):
        a = RandomStream(7)
        b = RandomStream(7)
        assert [a.exponential(2.0) for _ in range(10)] == [
            b.exponential(2.0) for _ in range(10)
        ]

    def test_exponential_mean(self):
        rng = RandomStream(1)
        n = 20000
        mean = sum(rng.exponential(3.0) for _ in range(n)) / n
        assert mean == pytest.approx(3.0, rel=0.05)

    def test_exponential_zero_mean(self):
        assert RandomStream(1).exponential(0.0) == 0.0

    def test_exponential_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(1).exponential(-1.0)

    def test_uniform_int_bounds(self):
        rng = RandomStream(2)
        draws = [rng.uniform_int(4, 12) for _ in range(2000)]
        assert min(draws) == 4
        assert max(draws) == 12

    def test_uniform_int_empty_range_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(1).uniform_int(5, 4)

    def test_bernoulli_probability(self):
        rng = RandomStream(3)
        n = 20000
        hits = sum(rng.bernoulli(0.25) for _ in range(n))
        assert hits / n == pytest.approx(0.25, abs=0.02)

    def test_bernoulli_rejects_bad_p(self):
        with pytest.raises(ValueError):
            RandomStream(1).bernoulli(1.5)

    def test_sample_without_replacement_distinct(self):
        rng = RandomStream(4)
        sample = rng.sample_without_replacement(1000, 12)
        assert len(sample) == 12
        assert len(set(sample)) == 12
        assert all(0 <= x < 1000 for x in sample)

    def test_sample_too_many_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(1).sample_without_replacement(5, 6)

    @given(st.integers(min_value=1, max_value=100))
    def test_sample_full_population(self, n):
        sample = RandomStream(5).sample_without_replacement(n, n)
        assert sorted(sample) == list(range(n))


class TestStreamFactory:
    def test_streams_are_cached(self):
        f = StreamFactory(99)
        assert f.stream("disks") is f.stream("disks")

    def test_different_names_different_sequences(self):
        f = StreamFactory(99)
        a = [f.stream("a").random() for _ in range(5)]
        b = [f.stream("b").random() for _ in range(5)]
        assert a != b

    def test_stable_across_factories(self):
        xs = [StreamFactory(1).stream("terminals").random() for _ in range(1)]
        ys = [StreamFactory(1).stream("terminals").random() for _ in range(1)]
        assert xs == ys

    def test_independent_of_creation_order(self):
        f1 = StreamFactory(5)
        f1.stream("first")
        seq1 = [f1.stream("target").random() for _ in range(5)]
        f2 = StreamFactory(5)
        seq2 = [f2.stream("target").random() for _ in range(5)]
        assert seq1 == seq2

    def test_different_root_seeds_differ(self):
        a = StreamFactory(1).stream("x").random()
        b = StreamFactory(2).stream("x").random()
        assert a != b


class TestBatchDraws:
    """The ``*_many`` variants are the loop of single draws, verbatim."""

    def test_uniform_int_many_matches_single_draw_loop(self):
        batched = RandomStream(42)
        looped = RandomStream(42)
        assert batched.uniform_int_many(3, 9, 100) == [
            looped.uniform_int(3, 9) for _ in range(100)
        ]
        # Both consumed identical generator state: follow-up draws agree.
        assert batched.uniform_int(0, 10**6) == looped.uniform_int(0, 10**6)

    def test_bernoulli_many_matches_single_draw_loop(self):
        batched = RandomStream(42)
        looped = RandomStream(42)
        assert batched.bernoulli_many(0.3, 100) == [
            looped.bernoulli(0.3) for _ in range(100)
        ]
        assert batched.random() == looped.random()

    def test_zero_draws_consume_no_state(self):
        stream = RandomStream(7)
        assert stream.uniform_int_many(1, 6, 0) == []
        assert stream.bernoulli_many(0.5, 0) == []
        assert stream.uniform_int(1, 6) == RandomStream(7).uniform_int(1, 6)

    def test_single_draw_batch(self):
        assert RandomStream(7).uniform_int_many(1, 6, 1) == [
            RandomStream(7).uniform_int(1, 6)
        ]
        assert RandomStream(7).bernoulli_many(0.5, 1) == [
            RandomStream(7).bernoulli(0.5)
        ]

    def test_degenerate_single_value_range(self):
        assert RandomStream(7).uniform_int_many(4, 4, 5) == [4] * 5

    def test_empty_range_rejected_even_for_zero_draws(self):
        stream = RandomStream(7)
        with pytest.raises(ValueError, match="empty range"):
            stream.uniform_int(5, 4)
        with pytest.raises(ValueError, match="empty range"):
            stream.uniform_int_many(5, 4, 0)
        with pytest.raises(ValueError, match="empty range"):
            stream.uniform_int_many(5, 4, 10)

    def test_bernoulli_probability_validated(self):
        stream = RandomStream(7)
        with pytest.raises(ValueError):
            stream.bernoulli_many(-0.1, 3)
        with pytest.raises(ValueError):
            stream.bernoulli_many(1.1, 3)

    def test_exponential_many_matches_single_draw_loop(self):
        batched = RandomStream(42)
        looped = RandomStream(42)
        assert batched.exponential_many(0.005, 100) == [
            looped.exponential(0.005) for _ in range(100)
        ]
        # Both consumed identical generator state: follow-up draws agree.
        assert batched.random() == looped.random()

    def test_exponential_many_zero_mean_consumes_no_state(self):
        stream = RandomStream(7)
        assert stream.exponential_many(0.0, 4) == [0.0] * 4
        assert stream.exponential_many(0.5, 0) == []
        assert stream.random() == RandomStream(7).random()

    def test_exponential_many_negative_mean_rejected(self):
        stream = RandomStream(7)
        with pytest.raises(ValueError, match="mean must be >= 0"):
            stream.exponential(-1.0)
        with pytest.raises(ValueError, match="mean must be >= 0"):
            stream.exponential_many(-1.0, 3)

"""Tests for the workload generator and the content cursor."""

import pytest

from repro.core import SimulationParameters, WorkloadGenerator
from repro.core.workload import CONTENT_CHUNK, ContentCursor
from repro.des import StreamFactory


def generator(seed=1, **overrides):
    params = SimulationParameters.table2(**overrides)
    return WorkloadGenerator(params, StreamFactory(seed)), params


def cursor(seed=1, **overrides):
    """A content cursor over a private ``workload`` sequence."""
    params = SimulationParameters.table2(**overrides)
    return ContentCursor(StreamFactory(seed).sequence(
        "workload",
        lambda streams: WorkloadGenerator(params, streams).chunk,
    ))


class TestWorkloadGenerator:
    def test_sizes_within_bounds(self):
        gen, params = generator()
        for _ in range(500):
            read_set, _, _ = gen.spec()
            assert params.min_size <= len(read_set) <= params.max_size

    def test_mean_size_close_to_tran_size(self):
        gen, params = generator()
        sizes = [len(gen.spec()[0]) for _ in range(3000)]
        assert sum(sizes) / len(sizes) == pytest.approx(
            params.tran_size, rel=0.05
        )

    def test_objects_distinct_and_in_range(self):
        gen, params = generator()
        for _ in range(200):
            read_set, _, _ = gen.spec()
            assert len(set(read_set)) == len(read_set)
            assert all(0 <= obj < params.db_size for obj in read_set)

    def test_write_set_subset_of_read_set(self):
        gen, _ = generator()
        for _ in range(200):
            read_set, write_set, _ = gen.spec()
            assert write_set <= set(read_set)

    def test_specs_are_immutable(self):
        gen, _ = generator()
        read_set, write_set, tx_class = gen.spec()
        assert type(read_set) is tuple
        assert type(write_set) is frozenset
        assert tx_class is None

    def test_write_fraction_close_to_write_prob(self):
        gen, params = generator()
        reads = writes = 0
        for _ in range(2000):
            read_set, write_set, _ = gen.spec()
            reads += len(read_set)
            writes += len(write_set)
        assert writes / reads == pytest.approx(params.write_prob, abs=0.02)

    def test_zero_write_prob_all_read_only(self):
        gen, _ = generator(write_prob=0.0)
        assert all(not gen.spec()[1] for _ in range(100))

    def test_write_prob_one_writes_everything(self):
        gen, _ = generator(write_prob=1.0)
        read_set, write_set, _ = gen.spec()
        assert write_set == set(read_set)

    def test_deterministic_given_seed(self):
        gen_a, _ = generator(seed=9)
        gen_b, _ = generator(seed=9)
        for _ in range(20):
            assert gen_a.spec() == gen_b.spec()

    def test_a_chunk_is_the_next_specs(self):
        gen_a, _ = generator(seed=9)
        gen_b, _ = generator(seed=9)
        chunk = gen_a.chunk()
        assert len(chunk) == CONTENT_CHUNK
        assert chunk == [gen_b.spec() for _ in range(CONTENT_CHUNK)]


class TestContentCursor:
    def test_ids_count_up_from_one(self):
        source = cursor()
        ids = [source.new_transaction(0).id for _ in range(50)]
        assert ids == list(range(1, 51))

    def test_terminal_id_recorded(self):
        assert cursor().new_transaction(17).terminal_id == 17

    def test_transactions_carry_the_specs(self):
        source = cursor(seed=9)
        gen, _ = generator(seed=9)
        for _ in range(CONTENT_CHUNK + 3):
            tx = source.new_transaction(0)
            read_set, write_set, tx_class = gen.spec()
            assert tx.read_set == read_set
            assert tx.write_set == write_set
            assert tx.tx_class == tx_class
            assert tx.size == len(read_set)

    def test_generated_counter(self):
        source = cursor()
        for _ in range(7):
            source.new_transaction(0)
        assert source.generated == 7

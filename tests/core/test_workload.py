"""Tests for the workload generator."""

import pytest

from repro.core import SimulationParameters, WorkloadGenerator
from repro.des import StreamFactory


def generator(seed=1, **overrides):
    params = SimulationParameters.table2(**overrides)
    return WorkloadGenerator(params, StreamFactory(seed)), params


class TestWorkloadGenerator:
    def test_sizes_within_bounds(self):
        gen, params = generator()
        for _ in range(500):
            tx = gen.new_transaction(0)
            assert params.min_size <= tx.size <= params.max_size

    def test_mean_size_close_to_tran_size(self):
        gen, params = generator()
        sizes = [gen.new_transaction(0).size for _ in range(3000)]
        assert sum(sizes) / len(sizes) == pytest.approx(
            params.tran_size, rel=0.05
        )

    def test_objects_distinct_and_in_range(self):
        gen, params = generator()
        for _ in range(200):
            tx = gen.new_transaction(0)
            assert len(set(tx.read_set)) == len(tx.read_set)
            assert all(0 <= obj < params.db_size for obj in tx.read_set)

    def test_write_set_subset_of_read_set(self):
        gen, _ = generator()
        for _ in range(200):
            tx = gen.new_transaction(0)
            assert tx.write_set <= set(tx.read_set)

    def test_write_fraction_close_to_write_prob(self):
        gen, params = generator()
        reads = writes = 0
        for _ in range(2000):
            tx = gen.new_transaction(0)
            reads += tx.size
            writes += len(tx.write_set)
        assert writes / reads == pytest.approx(params.write_prob, abs=0.02)

    def test_zero_write_prob_all_read_only(self):
        gen, _ = generator(write_prob=0.0)
        assert all(
            not gen.new_transaction(0).write_set for _ in range(100)
        )

    def test_write_prob_one_writes_everything(self):
        gen, _ = generator(write_prob=1.0)
        tx = gen.new_transaction(0)
        assert tx.write_set == set(tx.read_set)

    def test_ids_unique_and_increasing(self):
        gen, _ = generator()
        ids = [gen.new_transaction(0).id for _ in range(50)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 50

    def test_terminal_id_recorded(self):
        gen, _ = generator()
        assert gen.new_transaction(17).terminal_id == 17

    def test_deterministic_given_seed(self):
        gen_a, _ = generator(seed=9)
        gen_b, _ = generator(seed=9)
        for _ in range(20):
            ta = gen_a.new_transaction(0)
            tb = gen_b.new_transaction(0)
            assert ta.read_set == tb.read_set
            assert ta.write_set == tb.write_set

    def test_generated_counter(self):
        gen, _ = generator()
        for _ in range(7):
            gen.new_transaction(0)
        assert gen.generated == 7

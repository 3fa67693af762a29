"""Tests for the hotspot (skewed access) workload extension."""

import pytest

from repro.core import SimulationParameters, SystemModel, WorkloadGenerator
from repro.des import StreamFactory


def skewed_params(**overrides):
    base = dict(
        db_size=1000,
        min_size=4,
        max_size=12,
        write_prob=0.25,
        hot_fraction=0.1,
        hot_access_prob=0.8,
    )
    base.update(overrides)
    return SimulationParameters(**base)


class TestValidation:
    def test_both_fields_required_together(self):
        with pytest.raises(ValueError, match="together"):
            SimulationParameters(hot_fraction=0.1)
        with pytest.raises(ValueError, match="together"):
            SimulationParameters(hot_access_prob=0.5)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5])
    def test_hot_fraction_bounds(self, fraction):
        with pytest.raises(ValueError):
            skewed_params(hot_fraction=fraction)

    def test_hot_access_prob_bounds(self):
        with pytest.raises(ValueError):
            skewed_params(hot_access_prob=1.5)

    def test_empty_hot_region_rejected(self):
        with pytest.raises(ValueError, match="hot region"):
            skewed_params(db_size=5, hot_fraction=0.1, min_size=1,
                          max_size=2)

    def test_tiny_cold_region_rejected(self):
        with pytest.raises(ValueError, match="cold region"):
            skewed_params(db_size=20, hot_fraction=0.9, min_size=1,
                          max_size=4)

    def test_uniform_default(self):
        params = SimulationParameters()
        assert not params.has_hotspot
        assert params.hot_object_count() == 0


class TestSkewedGeneration:
    def test_objects_distinct_and_in_range(self):
        gen = WorkloadGenerator(skewed_params(), StreamFactory(1))
        for _ in range(300):
            read_set, _, _ = gen.spec()
            assert len(set(read_set)) == len(read_set)
            assert all(0 <= obj < 1000 for obj in read_set)

    def test_hot_region_receives_requested_share(self):
        params = skewed_params()
        gen = WorkloadGenerator(params, StreamFactory(2))
        hot_size = params.hot_object_count()
        hot = total = 0
        for _ in range(3000):
            read_set, _, _ = gen.spec()
            total += len(read_set)
            hot += sum(1 for obj in read_set if obj < hot_size)
        assert hot / total == pytest.approx(0.8, abs=0.03)

    def test_extreme_skew_spills_into_cold(self):
        # hot region of 2 objects but up to 4 accesses at prob 1.0:
        # the overflow must come from the cold region, all distinct.
        params = SimulationParameters(
            db_size=100, min_size=4, max_size=4, write_prob=0.0,
            hot_fraction=0.02, hot_access_prob=1.0,
        )
        gen = WorkloadGenerator(params, StreamFactory(3))
        for _ in range(100):
            read_set, _, _ = gen.spec()
            assert len(set(read_set)) == 4

    def test_skew_raises_conflict_rate(self):
        uniform = SimulationParameters(
            db_size=1000, min_size=4, max_size=12, write_prob=0.25,
            num_terms=50, mpl=50, ext_think_time=0.2,
            obj_io=0.005, obj_cpu=0.002,
            num_cpus=None, num_disks=None,
        )
        skewed = uniform.with_changes(
            hot_fraction=0.05, hot_access_prob=0.8
        )
        uniform_model = SystemModel(uniform, "blocking", seed=6)
        uniform_model.run_until(30.0)
        skewed_model = SystemModel(skewed, "blocking", seed=6)
        skewed_model.run_until(30.0)

        def block_ratio(model):
            return (
                model.metrics.blocks.total
                / max(1, model.metrics.commits.total)
            )

        assert block_ratio(skewed_model) > 2 * block_ratio(uniform_model)

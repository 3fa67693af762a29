"""Tests for the adaptive multiprogramming-level controller."""

import pytest

from repro.analysis import AdaptiveMplController
from repro.core import SimulationParameters, SystemModel


def model(mpl=5, **overrides):
    base = dict(
        db_size=200,
        min_size=4,
        max_size=8,
        write_prob=0.25,
        num_terms=20,
        mpl=mpl,
        ext_think_time=0.5,
        obj_io=0.010,
        obj_cpu=0.005,
        num_cpus=1,
        num_disks=2,
    )
    base.update(overrides)
    return SystemModel(SimulationParameters(**base), "blocking", seed=7)


class TestController:
    def test_requires_system_model(self):
        with pytest.raises(TypeError):
            AdaptiveMplController("not a model")

    def test_max_below_min_rejected(self):
        with pytest.raises(ValueError, match="min_mpl <= max_mpl"):
            AdaptiveMplController(model(), min_mpl=10, max_mpl=6)

    def test_zero_max_rejected_not_defaulted(self):
        with pytest.raises(ValueError, match="max_mpl=0"):
            AdaptiveMplController(model(), max_mpl=0)

    def test_zero_min_rejected(self):
        with pytest.raises(ValueError, match="min_mpl=0"):
            AdaptiveMplController(model(), min_mpl=0)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError, match="initial_step"):
            AdaptiveMplController(model(), initial_step=0)

    def test_max_none_means_terminal_count(self):
        controller = AdaptiveMplController(model(num_terms=20))
        assert controller.max_mpl == 20

    def test_run_produces_trace(self):
        controller = AdaptiveMplController(model(), initial_step=2)
        result = controller.run(epochs=6, epoch_time=5.0, warmup_time=5.0)
        assert result.epochs == 6
        assert result.best_throughput > 0
        assert result.final_mpl >= 1

    def test_mpl_stays_within_bounds(self):
        m = model(mpl=5)
        controller = AdaptiveMplController(
            m, min_mpl=2, max_mpl=8, initial_step=10
        )
        controller.run(epochs=8, epoch_time=3.0)
        assert 2 <= m.mpl_limit <= 8

    def test_trace_records_mpl_in_effect(self):
        m = model(mpl=4)
        controller = AdaptiveMplController(m, initial_step=1)
        result = controller.run(epochs=3, epoch_time=3.0)
        first_epoch = result.trace[0]
        assert first_epoch[0] == 0
        assert first_epoch[1] == 4

    def test_degradation_reverses_direction(self):
        m = model()
        controller = AdaptiveMplController(m, initial_step=4)
        controller._last_throughput = 100.0  # previous epoch was great
        controller._adjust(throughput=1.0, values={
            "disk_util": 0.5, "disk_util_useful": 0.5,
        })
        assert controller.direction == -1
        assert controller.step == 2

    def test_waste_guard_blocks_increase(self):
        m = model()
        controller = AdaptiveMplController(m, initial_step=2,
                                           waste_guard=0.3)
        before = m.mpl_limit
        controller._adjust(throughput=5.0, values={
            "disk_util": 1.0, "disk_util_useful": 0.2,  # 80% waste
        })
        assert m.mpl_limit < before + 2  # increase was refused
        assert controller.direction == -1

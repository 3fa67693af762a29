"""Tests for the open-system (Poisson arrival) source model."""

import pytest

from repro.core import (
    RunConfig,
    SimulationParameters,
    SystemModel,
    run_simulation,
)
from repro.workloads import create_workload_model


def open_params(rate, **overrides):
    base = dict(
        db_size=500,
        min_size=4,
        max_size=8,
        write_prob=0.25,
        num_terms=1,  # ignored in open mode
        mpl=20,
        obj_io=0.010,
        obj_cpu=0.005,
        num_cpus=2,
        num_disks=4,
        workload_model="open_poisson",
        arrival_rate=rate,
    )
    base.update(overrides)
    return SimulationParameters(**base)


class TestValidation:
    def test_mode_names(self):
        with pytest.raises(ValueError, match="unknown workload model"):
            create_workload_model(
                SimulationParameters(workload_model="poisson")
            )

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="rate must be > 0"):
            create_workload_model(open_params(rate=0.0))

    def test_closed_default(self):
        assert SimulationParameters().workload_model == "closed_classic"


class TestOpenArrivals:
    def test_throughput_tracks_offered_load_when_underloaded(self):
        # Service demand per transaction ~= 6 * 15 ms of disk+CPU over
        # 2 CPUs/4 disks: capacity far above 5 tps, so the system is
        # lossless and throughput == arrival rate.
        result = run_simulation(
            open_params(rate=5.0),
            "blocking",
            RunConfig(batches=6, batch_time=20.0, warmup_batches=1,
                      seed=8),
        )
        assert result.throughput == pytest.approx(5.0, rel=0.10)

    def test_overload_builds_unbounded_backlog(self):
        # Offered load beyond capacity: a closed model cannot show this;
        # the open model's ready queue must grow without bound.
        model = SystemModel(open_params(rate=200.0), "blocking", seed=9)
        model.run_until(10.0)
        early_backlog = len(model.ready_queue)
        model.run_until(30.0)
        late_backlog = len(model.ready_queue)
        assert late_backlog > early_backlog
        assert late_backlog > 100

    def test_arrival_count_close_to_rate(self):
        model = SystemModel(open_params(rate=50.0), "blocking", seed=10)
        model.run_until(20.0)
        assert model.workload.generated == pytest.approx(1000, rel=0.15)

    def test_no_terminals_spawned(self):
        model = SystemModel(
            open_params(rate=5.0, num_terms=100), "blocking", seed=11
        )
        model.run_until(5.0)
        # All transactions come from the single source; terminal id 0.
        assert model.metrics.commits.total > 0

    def test_mpl_still_enforced(self):
        model = SystemModel(open_params(rate=500.0, mpl=7),
                            "blocking", seed=12)
        violations = []

        def probe(env):
            while True:
                if model.active_count > 7:
                    violations.append(env.now)
                yield env.timeout(0.01)

        model.env.process(probe(model.env))
        model.run_until(5.0)
        assert violations == []

"""Tests for the skewed-disks resource model (object→disk placement)."""

import pytest

from repro.core import RunConfig, SimulationParameters, run_simulation
from repro.core.transaction import Transaction
from repro.des import Environment, StreamFactory
from repro.resources import create_resource_model


def build(**overrides):
    params = SimulationParameters.table2(
        resource_model="skewed_disks", **overrides
    )
    env = Environment()
    model = create_resource_model(
        "skewed_disks", env, params, StreamFactory(5)
    )
    return env, model, params


def disk_for(model, obj):
    """The disk the model placed ``obj`` on."""
    return model._disk_of[obj]


def tx():
    return Transaction(1, 0, read_set=(1,), write_set=())


class TestPlacement:
    def test_contiguous_maps_id_runs_to_disks(self):
        _, model, params = build(num_disks=4)  # db_size=1000 -> runs of 250
        assert disk_for(model, 0) == 0
        assert disk_for(model, 249) == 0
        assert disk_for(model, 250) == 1
        assert disk_for(model, 999) == 3

    def test_striped_is_round_robin(self):
        _, model, _ = build(num_disks=4, disk_placement="striped")
        assert [disk_for(model, obj) for obj in range(6)] == [
            0, 1, 2, 3, 0, 1,
        ]

    def test_requires_finite_disks(self):
        with pytest.raises(ValueError, match="finite disks"):
            build(num_disks=None)

    def test_placement_is_deterministic(self):
        """Placement never consumes RNG draws: two models with different
        seeds place identically."""
        env = Environment()
        params = SimulationParameters.table2(
            resource_model="skewed_disks", num_disks=4
        )
        a = create_resource_model(
            "skewed_disks", env, params, StreamFactory(1)
        )
        b = create_resource_model(
            "skewed_disks", Environment(), params, StreamFactory(2)
        )
        for obj in range(0, 1000, 97):
            assert disk_for(a, obj) == disk_for(b, obj)

    def test_read_access_queues_on_the_placed_disk(self):
        env, model, params = build(num_disks=2)
        finish = []

        def proc(obj):
            t = tx()
            yield from model.read_access(t, obj)
            finish.append((obj, env.now))

        # Objects 0 and 1 both live on disk 0 (contiguous): serialized.
        env.process(proc(0))
        env.process(proc(1))
        env.run()
        times = dict(finish)
        assert times[1] - times[0] == pytest.approx(params.obj_io)


class TestEndToEnd:
    RUN = RunConfig(batches=2, batch_time=8.0, warmup_batches=0, seed=13)
    BASE = SimulationParameters(
        db_size=200, min_size=2, max_size=8, num_terms=25, mpl=10,
        ext_think_time=0.5, obj_io=0.02, obj_cpu=0.01,
        num_cpus=1, num_disks=4,
        hot_fraction=0.1, hot_access_prob=0.7,
    )

    def test_hotspot_on_contiguous_placement_hurts_throughput(self):
        """Data skew becomes resource skew: the hot region's spindle
        bottlenecks contiguous placement, while striping (round-robin)
        spreads the same accesses over all disks."""
        contiguous = run_simulation(
            self.BASE.with_changes(resource_model="skewed_disks"),
            algorithm="blocking", run=self.RUN,
        )
        striped = run_simulation(
            self.BASE.with_changes(
                resource_model="skewed_disks", disk_placement="striped"
            ),
            algorithm="blocking", run=self.RUN,
        )
        assert (
            contiguous.analyzer.mean("throughput")
            < striped.analyzer.mean("throughput")
        )

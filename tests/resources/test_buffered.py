"""Tests for the buffered resource model (buffer pool in front of disks)."""

import io

import pytest

from repro.core import RunConfig, SimulationParameters, run_simulation
from repro.core.transaction import Transaction
from repro.des import Environment, StreamFactory
from repro.obs import BUFFER_KINDS, InstrumentationBus, JsonlSink
from repro.resources import create_resource_model


def build(observed=False, **overrides):
    """A buffered model; ``observed`` gives it a bus with a buffer sink."""
    params = SimulationParameters.table2(
        resource_model="buffered", **overrides
    )
    env = Environment()
    bus = None
    if observed:
        bus = InstrumentationBus(env)
        bus.attach(JsonlSink(io.StringIO(), kinds=BUFFER_KINDS))
    model = create_resource_model(
        "buffered", env, params, StreamFactory(5), bus=bus
    )
    return env, model, params


def tx():
    return Transaction(1, 0, read_set=(1,), write_set=())


def drive(env, generator):
    done = env.process(generator)
    env.run(until=done)


class TestLruPolicy:
    def test_first_read_misses_and_fills(self):
        env, model, params = build(buffer_capacity=10)
        t = tx()
        drive(env, model.read_access(t, 7))
        assert model.buffer_misses == 1
        assert model.buffer_hits == 0
        # Full disk + CPU service consumed on the miss.
        assert t.attempt_disk_time == pytest.approx(params.obj_io)
        assert t.attempt_cpu_time == pytest.approx(params.obj_cpu)

    def test_reread_hits_and_skips_disk(self):
        env, model, params = build(buffer_capacity=10)
        first, second = tx(), tx()
        drive(env, model.read_access(first, 7))
        drive(env, model.read_access(second, 7))
        assert model.buffer_hits == 1
        assert second.attempt_disk_time == 0.0
        assert second.attempt_cpu_time == pytest.approx(params.obj_cpu)

    def test_lru_eviction(self):
        env, model, _ = build(buffer_capacity=2)
        t = tx()
        for obj in (1, 2, 3):  # 3 evicts 1 (capacity 2)
            drive(env, model.read_access(t, obj))
        drive(env, model.read_access(t, 2))  # still resident
        assert model.buffer_hits == 1
        drive(env, model.read_access(t, 1))  # evicted: miss again
        assert model.buffer_misses == 4

    def test_writeback_charges_disk_and_fills(self):
        env, model, params = build(buffer_capacity=10)
        writer, reader = tx(), tx()
        drive(env, model.deferred_update(writer, 9))
        assert model.buffer_writebacks == 1
        assert writer.attempt_disk_time == pytest.approx(params.obj_io)
        drive(env, model.read_access(reader, 9))
        assert model.buffer_hits == 1  # written page is resident

    def test_object_blind_calls_never_hit(self):
        env, model, _ = build(buffer_capacity=10)
        t = tx()
        drive(env, model.read_access(t))
        drive(env, model.read_access(t))
        assert model.buffer_hits == 0
        assert model.buffer_misses == 2

    def test_default_capacity_is_a_tenth_of_db(self):
        _, model, params = build()
        assert model.buffer_capacity == params.db_size // 10


class TestFixedPolicy:
    def test_a_hit_ratio_selects_the_fixed_policy(self):
        _, fixed, _ = build(buffer_hit_ratio=0.5)
        _, lru, _ = build()
        assert fixed.buffer_summary()["policy"] == "fixed"
        assert lru.buffer_summary()["policy"] == "lru"

    def test_a_hit_ratio_excludes_a_capacity(self):
        with pytest.raises(ValueError, match="exclusive"):
            build(buffer_capacity=10, buffer_hit_ratio=0.5)

    def test_realized_ratio_tracks_configured(self):
        env, model, _ = build(
            buffer_hit_ratio=0.7
        )
        t = tx()
        for obj in range(500):
            drive(env, model.read_access(t, obj))
        ratio = model.buffer_summary()["hit_ratio"]
        assert ratio == pytest.approx(0.7, abs=0.08)

    def test_all_hits_consume_no_disk(self):
        env, model, _ = build(
            buffer_hit_ratio=1.0
        )
        t = tx()
        for obj in range(20):
            drive(env, model.read_access(t, obj))
        assert t.attempt_disk_time == 0.0
        assert model.buffer_hits == 20


class TestReporting:
    RUN = RunConfig(batches=2, batch_time=8.0, warmup_batches=0, seed=11)
    PARAMS = SimulationParameters(
        db_size=200, min_size=2, max_size=8, num_terms=25, mpl=8,
        ext_think_time=0.5, obj_io=0.02, obj_cpu=0.01,
        num_cpus=1, num_disks=2,
        resource_model="buffered", buffer_capacity=50,
    )

    def test_counts_reach_totals_and_diagnostics(self):
        result = run_simulation(
            self.PARAMS, algorithm="blocking", run=self.RUN
        )
        buffer = result.totals["buffer"]
        assert buffer["hits"] + buffer["misses"] > 0
        assert buffer["policy"] == "lru"
        assert buffer["capacity"] == 50
        assert result.diagnostics["buffer"] == buffer

    def test_buffer_summary_shape(self):
        _, model, _ = build(buffer_capacity=10)
        summary = model.buffer_summary()
        assert set(summary) == {
            "policy", "capacity", "hits", "misses", "hit_ratio",
            "writebacks",
        }
        assert summary["hit_ratio"] is None  # no probes yet

    def test_hit_ratio_reduces_disk_demand(self):
        """The point of the model: hits shed disk load end to end."""
        cached = run_simulation(
            self.PARAMS.with_changes(
                buffer_hit_ratio=0.9,
                buffer_capacity=None,
            ),
            algorithm="blocking", run=self.RUN,
        )
        uncached = run_simulation(
            self.PARAMS.with_changes(
                buffer_hit_ratio=0.0,
                buffer_capacity=None,
            ),
            algorithm="blocking", run=self.RUN,
        )
        assert (
            cached.analyzer.mean("disk_util")
            < uncached.analyzer.mean("disk_util")
        )


class TestCountsKeptByTheModel:
    """The model counts its cache activity; observers only see events."""

    @staticmethod
    def drive_mix(env, model):
        t = tx()
        for obj in (1, 2, 3, 1, 4, 2, 5, 1):
            drive(env, model.read_access(t, obj))
        for obj in (3, 6):
            drive(env, model.deferred_update(t, obj))
        drive(env, model.read_access(t, 6))

    @pytest.mark.parametrize("policy", [
        dict(buffer_capacity=3),
        dict(buffer_hit_ratio=0.5),
    ])
    def test_bus_free_model_reports_the_observed_summary(self, policy):
        env, bare, _ = build(**policy)
        assert bare.bus is None  # no private bus is built
        self.drive_mix(env, bare)
        env, observed, _ = build(observed=True, **policy)
        self.drive_mix(env, observed)
        assert observed.bus.wants_buffer
        summary = bare.buffer_summary()
        assert summary == observed.buffer_summary()
        assert summary["hits"] + summary["misses"] == 9
        assert summary["writebacks"] == 2

    def test_unobserved_run_emits_no_buffer_event(self, monkeypatch):
        emitted = []
        emit = InstrumentationBus.emit

        def spy(bus, kind, **fields):
            emitted.append(kind)
            emit(bus, kind, **fields)

        monkeypatch.setattr(InstrumentationBus, "emit", spy)
        bare = run_simulation(
            TestReporting.PARAMS, algorithm="blocking", run=TestReporting.RUN
        )
        assert emitted
        assert not set(emitted) & set(BUFFER_KINDS)

        sink = io.StringIO()
        observed = run_simulation(
            TestReporting.PARAMS, algorithm="blocking",
            run=TestReporting.RUN,
            subscribers=(JsonlSink(sink, kinds=BUFFER_KINDS),),
        )
        assert observed.totals["buffer"] == bare.totals["buffer"]
        buffer = bare.totals["buffer"]
        assert sink.getvalue().count("\n") == (
            buffer["hits"] + buffer["misses"] + buffer["writebacks"]
        )

"""Tests for the TimeSeriesSampler subscriber."""

import io

import pytest

from repro.core import SystemModel
from repro.obs import (
    InstrumentationBus,
    JsonlSink,
    Subscriber,
    TimeSeriesSampler,
    read_jsonl,
)
from repro.obs.events import SAMPLE
from repro.obs.timeseries import SAMPLE_FIELDS
from repro.des import Environment

from tests.obs.test_subscribers import small_params


class TestValidation:
    @pytest.mark.parametrize("interval", [0.0, -1.0])
    def test_nonpositive_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="interval"):
            TimeSeriesSampler(interval=interval)

    def test_attach_without_model_rejected(self):
        bus = InstrumentationBus(Environment())
        with pytest.raises(ValueError, match="SystemModel"):
            bus.attach(TimeSeriesSampler())


class TestSampling:
    @pytest.fixture(scope="class")
    def sampled(self):
        sampler = TimeSeriesSampler(interval=0.5)
        model = SystemModel(small_params(), "blocking", seed=4,
                            subscribers=(sampler,))
        model.run_until(10.0)
        return model, sampler

    def test_ticks_land_on_interval_grid(self, sampled):
        _, sampler = sampled
        times = sampler.series()["time"]
        assert times[0] == 0.0
        expected = [i * 0.5 for i in range(len(times))]
        assert times == pytest.approx(expected)
        # 10s horizon at 0.5s spacing: sample at t=0 plus one per tick.
        assert len(sampler) >= 20

    def test_columns_are_aligned(self, sampled):
        _, sampler = sampled
        series = sampler.series()
        assert set(series) == set(SAMPLE_FIELDS)
        lengths = {field: len(values) for field, values in series.items()}
        assert len(set(lengths.values())) == 1

    def test_cumulative_counters_are_nondecreasing(self, sampled):
        _, sampler = sampled
        series = sampler.series()
        for field in ("commits", "restarts", "blocks"):
            values = series[field]
            assert values == sorted(values)
        assert series["commits"][-1] > 0

    def test_rows_match_series(self, sampled):
        _, sampler = sampled
        series = sampler.series()
        rows = sampler.rows()
        assert len(rows) == len(sampler)
        for i, row in enumerate(rows):
            assert row == {f: series[f][i] for f in SAMPLE_FIELDS}

    def test_series_returns_copies(self, sampled):
        _, sampler = sampled
        first = sampler.series()
        first["time"].append(-1.0)
        assert sampler.series()["time"][-1] != -1.0


class TestSampleEvents:
    def test_sample_events_reach_other_subscribers(self):
        class Collect(Subscriber):
            kinds = (SAMPLE,)

            def __init__(self):
                self.rows = []

            def on_event(self, time, kind, fields):
                self.rows.append(dict(fields))

        sampler = TimeSeriesSampler(interval=1.0)
        collector = Collect()
        model = SystemModel(small_params(), "blocking", seed=4,
                            subscribers=(sampler, collector))
        model.run_until(5.0)
        assert len(collector.rows) == len(sampler)
        assert collector.rows == sampler.rows()

    def test_unwanted_samples_are_not_emitted(self):
        buffer = io.StringIO()
        sampler = TimeSeriesSampler(interval=1.0)
        sink = JsonlSink(buffer, kinds=("commit",))
        model = SystemModel(small_params(), "blocking", seed=4,
                            subscribers=(sampler, sink))
        model.run_until(5.0)
        assert len(sampler) > 0
        assert not model.bus.wants(SAMPLE)
        buffer.seek(0)
        kinds = {event["kind"] for event in read_jsonl(buffer)}
        assert kinds == {"commit"}

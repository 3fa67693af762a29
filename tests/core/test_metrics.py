"""Unit tests for the metrics collector and running averages."""

import pytest

from repro.core import RunningAverage, SimulationParameters
from repro.core.metrics import MetricsCollector
from repro.resources import ClassicResourceModel
from repro.core.transaction import Transaction
from repro.des import Environment, StreamFactory


class TestRunningAverage:
    def test_initial_estimate_before_data(self):
        avg = RunningAverage(initial_estimate=2.5)
        assert avg.value == 2.5

    def test_cumulative_mean(self):
        avg = RunningAverage(initial_estimate=99.0)
        for x in (1.0, 2.0, 3.0):
            avg.observe(x)
        assert avg.value == pytest.approx(2.0)


def make_collector():
    env = Environment()
    params = SimulationParameters.table2()
    physical = ClassicResourceModel(env, params, StreamFactory(1))
    return env, MetricsCollector(env, params, physical)


def committed_tx(submit, commit):
    tx = Transaction(1, 0, read_set=(1,), write_set=())
    tx.first_submit_time = submit
    tx.commit_time = commit
    return tx


class TestMetricsCollector:
    def test_adaptive_seed_is_expected_service_time(self):
        _, metrics = make_collector()
        assert metrics.avg_response.value == pytest.approx(0.5)

    def test_record_commit_updates_everything(self):
        _, metrics = make_collector()
        metrics.record_commit(committed_tx(0.0, 2.0))
        metrics.record_commit(committed_tx(1.0, 5.0))
        assert metrics.commits.total == 2
        assert metrics.response_times.mean == pytest.approx(3.0)
        assert metrics.avg_response.value == pytest.approx(3.0)
        assert metrics.response_p50.count == 2

    def test_restart_reason_breakdown(self):
        _, metrics = make_collector()
        tx = committed_tx(0.0, 1.0)
        metrics.record_restart(tx, "deadlock")
        metrics.record_restart(tx, "deadlock")
        metrics.record_restart(tx, "wounded")
        assert metrics.restarts.total == 3
        assert metrics.restart_reasons == {"deadlock": 2, "wounded": 1}

    def test_batch_values_are_window_deltas(self):
        env, metrics = make_collector()
        env.timeout(100.0)  # something to run against
        metrics.record_commit(committed_tx(0.0, 0.0))
        env.run(until=10.0)
        snapshot = metrics.snapshot()
        metrics.record_commit(committed_tx(5.0, 10.0))
        metrics.record_commit(committed_tx(6.0, 10.0))
        metrics.record_block(None)
        env.run(until=20.0)
        values = metrics.batch_values(snapshot)
        # Only the two post-snapshot commits count, over 10 seconds.
        assert values["throughput"] == pytest.approx(0.2)
        assert values["commits"] == 2.0
        assert values["response_time"] == pytest.approx(4.5)
        assert values["block_ratio"] == pytest.approx(0.5)
        assert values["restart_ratio"] == 0.0

    def test_empty_batch_window_rejected(self):
        _, metrics = make_collector()
        snapshot = metrics.snapshot()
        with pytest.raises(ValueError):
            metrics.batch_values(snapshot)

    def test_zero_commit_batch_ratios_are_zero(self):
        env, metrics = make_collector()
        env.timeout(100.0)
        snapshot = metrics.snapshot()
        metrics.record_block(None)
        env.run(until=10.0)
        values = metrics.batch_values(snapshot)
        assert values["throughput"] == 0.0
        assert values["block_ratio"] == 0.0

"""Tests for the batch-means simulation driver and result object."""

import pytest

from repro.core import (
    RunConfig,
    SimulationParameters,
    run_simulation,
)


def quick_run(**overrides):
    run_overrides = overrides.pop("run", {})
    params = SimulationParameters(
        db_size=200,
        min_size=4,
        max_size=8,
        write_prob=0.25,
        num_terms=10,
        mpl=5,
        ext_think_time=0.5,
        obj_io=0.010,
        obj_cpu=0.005,
        num_cpus=1,
        num_disks=2,
        **overrides,
    )
    run = RunConfig(
        batches=4, batch_time=10.0, warmup_batches=1, seed=21,
        **run_overrides,
    )
    return params, run


class TestRunSimulation:
    def test_batches_recorded(self):
        params, run = quick_run()
        result = run_simulation(params, "blocking", run)
        assert result.analyzer.batches_recorded == run.batches
        assert result.algorithm == "blocking"

    def test_throughput_interval_and_mean_agree(self):
        params, run = quick_run()
        result = run_simulation(params, "blocking", run)
        ci = result.interval("throughput")
        assert ci.mean == pytest.approx(result.throughput)
        assert ci.n == run.batches

    def test_output_variables_present(self):
        params, run = quick_run()
        result = run_simulation(params, "optimistic", run)
        names = set(result.analyzer.names())
        expected = {
            "throughput", "response_time", "response_time_std",
            "restart_ratio", "block_ratio", "cpu_util",
            "cpu_util_useful", "disk_util", "disk_util_useful",
            "avg_active", "avg_ready_queue", "commits",
        }
        assert expected <= names

    def test_totals_consistency(self):
        params, run = quick_run()
        result = run_simulation(params, "blocking", run)
        assert result.totals["simulated_time"] == pytest.approx(
            (run.batches + run.warmup_batches) * run.batch_time
        )
        assert result.totals["commits"] > 0
        assert result.totals["commits"] <= (
            result.totals["transactions_generated"]
        )

    def test_throughput_matches_commit_count(self):
        # throughput per batch * batch_time summed over retained batches
        # should be close to total commits minus warmup commits.
        params, run = quick_run()
        result = run_simulation(params, "blocking", run)
        series = result.analyzer.series("commits")
        per_batch_commits = sum(series.values)
        assert per_batch_commits <= result.totals["commits"]

    def test_seed_override_changes_result(self):
        params, run = quick_run()
        a = run_simulation(params, "blocking", run)
        b = run_simulation(params, "blocking", run, seed=99)
        assert a.totals["commits"] != b.totals["commits"]

    def test_deterministic_for_same_seed(self):
        params, run = quick_run()
        a = run_simulation(params, "blocking", run)
        b = run_simulation(params, "blocking", run)
        assert a.totals["commits"] == b.totals["commits"]
        assert a.throughput == pytest.approx(b.throughput)

    def test_describe_mentions_key_numbers(self):
        params, run = quick_run()
        result = run_simulation(params, "blocking", run)
        text = result.describe()
        assert "blocking" in text
        assert "throughput" in text

    def test_default_run_config_used_when_none(self):
        params, _ = quick_run()
        tiny = params.with_changes(num_terms=2, mpl=2)
        result = run_simulation(
            tiny, "noop", RunConfig(batches=1, batch_time=2.0,
                                    warmup_batches=0)
        )
        assert result.analyzer.batches_recorded == 1

    def test_fused_executor_needs_a_replication(self):
        # The batch loop runs until the last replication retires, so
        # zero replications must be refused, not looped on forever.
        from repro.core.simulation import run_point_replications

        params, run = quick_run()
        with pytest.raises(ValueError, match="replications"):
            run_point_replications(params, "blocking", run, 0)


class TestClosedFormCalibration:
    """Contention-free runs must match queueing-theory expectations."""

    def test_single_terminal_response_is_pure_service(self):
        # One terminal, fixed 8-object read-only transactions, infinite
        # resources: response time is exactly 8*(obj_io+obj_cpu).
        params = SimulationParameters(
            db_size=1000,
            min_size=8,
            max_size=8,
            write_prob=0.0,
            num_terms=1,
            mpl=1,
            ext_think_time=1.0,
            obj_io=0.035,
            obj_cpu=0.015,
            num_cpus=None,
            num_disks=None,
        )
        run = RunConfig(batches=5, batch_time=20.0, warmup_batches=1)
        result = run_simulation(params, "noop", run)
        assert result.mean("response_time") == pytest.approx(0.4, rel=1e-6)

    def test_closed_system_throughput_law(self):
        # Interactive response time law: X = N / (R + Z) for a closed
        # system with N users, think time Z, response R.
        params = SimulationParameters(
            db_size=10_000,
            min_size=8,
            max_size=8,
            write_prob=0.0,
            num_terms=20,
            mpl=20,
            ext_think_time=1.0,
            obj_io=0.035,
            obj_cpu=0.015,
            num_cpus=None,
            num_disks=None,
        )
        run = RunConfig(batches=8, batch_time=30.0, warmup_batches=2, seed=3)
        result = run_simulation(params, "noop", run)
        R = result.mean("response_time")
        X = result.mean("throughput")
        N = params.num_terms
        Z = params.ext_think_time
        assert X == pytest.approx(N / (R + Z), rel=0.05)

    def test_disk_bound_throughput_ceiling(self):
        # 1 CPU, 2 disks, read-only: peak throughput is bounded by disk
        # capacity: 2 disks / (8 reads * 35 ms) ~= 7.14 tps.
        params = SimulationParameters(
            db_size=10_000,
            min_size=8,
            max_size=8,
            write_prob=0.0,
            num_terms=50,
            mpl=50,
            ext_think_time=0.5,
            obj_io=0.035,
            obj_cpu=0.015,
            num_cpus=1,
            num_disks=2,
        )
        run = RunConfig(batches=5, batch_time=30.0, warmup_batches=1, seed=5)
        result = run_simulation(params, "noop", run)
        ceiling = 2 / (8 * 0.035)
        assert result.throughput <= ceiling * 1.02
        assert result.throughput >= ceiling * 0.80  # near-saturated
        assert result.mean("disk_util") > 0.85

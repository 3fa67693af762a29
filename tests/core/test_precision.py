"""Tests for the sequential (precision-driven) stopping rule."""

import pytest

from repro.core import (
    RunConfig,
    SimulationParameters,
    run_simulation,
    run_until_precision,
)


def params():
    return SimulationParameters(
        db_size=200, min_size=4, max_size=8, write_prob=0.25,
        num_terms=10, mpl=5, ext_think_time=0.5,
        obj_io=0.010, obj_cpu=0.005, num_cpus=1, num_disks=2,
    )


RUN = RunConfig(batches=4, batch_time=10.0, warmup_batches=1, seed=44)


class TestValidation:
    def test_target_positive(self):
        with pytest.raises(ValueError):
            run_until_precision(params(), target_relative_hw=0.0)

    def test_max_batches_minimum(self):
        with pytest.raises(ValueError):
            run_until_precision(params(), max_batches=2)


class TestStoppingRule:
    def test_stops_once_target_met(self):
        result = run_until_precision(
            params(), "blocking", RUN,
            target_relative_hw=0.10, max_batches=60,
        )
        interval = result.interval("throughput")
        assert interval.relative_half_width <= 0.10
        assert 3 <= result.run.batches <= 60
        assert result.analyzer.batches_recorded == result.run.batches

    def test_tighter_target_needs_more_batches(self):
        loose = run_until_precision(
            params(), "blocking", RUN,
            target_relative_hw=0.25, max_batches=80,
        )
        tight = run_until_precision(
            params(), "blocking", RUN,
            target_relative_hw=0.04, max_batches=80,
        )
        assert tight.run.batches >= loose.run.batches
        assert loose.run.batches >= 3

    def test_max_batches_caps_hopeless_targets(self):
        result = run_until_precision(
            params(), "blocking", RUN,
            target_relative_hw=1e-9, max_batches=5,
        )
        assert result.run.batches == 5

    def test_result_totals_present(self):
        result = run_until_precision(
            params(), "optimistic", RUN,
            target_relative_hw=0.2, max_batches=30,
        )
        assert result.totals["commits"] > 0
        assert result.algorithm == "optimistic"


class TestMinimumBatches:
    def test_at_least_three_batches_even_for_loose_targets(self):
        # An absurdly loose target would be "met" after one batch; the
        # rule must still collect three so the interval is meaningful.
        result = run_until_precision(
            params(), "blocking", RUN,
            target_relative_hw=1e9, max_batches=50,
        )
        assert result.run.batches == 3
        assert result.analyzer.batches_recorded == 3

    def test_minimum_applies_after_warmup(self):
        # Warmup batches are discarded; the three-batch floor counts
        # retained batches only.
        run = RunConfig(batches=4, batch_time=10.0, warmup_batches=2,
                        seed=44)
        result = run_until_precision(
            params(), "blocking", run,
            target_relative_hw=1e9, max_batches=50,
        )
        assert result.analyzer.batches_recorded == 3


class TestDriverAgreement:
    """The stopping rule is the only difference from a fixed-length run."""

    @pytest.mark.parametrize("algorithm,target", [
        ("blocking", 1e-12),       # stopped by max_batches
        ("optimistic", 1e-12),
        ("blocking", 0.25),        # stopped by the interval
    ])
    def test_matches_run_simulation_at_the_batches_it_kept(
            self, algorithm, target):
        precise = run_until_precision(
            params(), algorithm, RUN, target_relative_hw=target,
            max_batches=6, invariants="warn",
        )
        kept = precise.run.batches
        fixed = run_simulation(
            params(), algorithm, RUN.with_changes(batches=kept),
            invariants="warn",
        )
        assert precise.run == fixed.run
        assert precise.algorithm == fixed.algorithm
        assert precise.analyzer.names() == fixed.analyzer.names()
        for name in fixed.analyzer.names():
            assert (precise.analyzer.series(name).values
                    == fixed.analyzer.series(name).values)
        assert precise.totals == fixed.totals
        assert precise.diagnostics == fixed.diagnostics
        assert "invariants" in fixed.diagnostics

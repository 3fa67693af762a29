"""Tests for ASCII report rendering."""

from dataclasses import replace

import pytest

from repro.core import RunConfig, SimulationParameters
from repro.experiments import (
    ExperimentConfig,
    ascii_plot,
    format_table,
    run_sweep,
    sweep_report,
)
from repro.experiments.report import metric_label

TINY_RUN = RunConfig(batches=2, batch_time=5.0, warmup_batches=0, seed=23)


@pytest.fixture(scope="module")
def sweep():
    params = SimulationParameters(
        db_size=200, min_size=4, max_size=8, write_prob=0.25,
        num_terms=10, mpl=5, ext_think_time=0.5,
        obj_io=0.010, obj_cpu=0.005, num_cpus=1, num_disks=2,
    )
    config = ExperimentConfig(
        experiment_id="report-test",
        title="Report rendering test",
        params=params,
        algorithms=("blocking", "optimistic"),
        mpls=(2, 5),
        metrics=("throughput", "disk_util"),
        notes="a note",
    )
    return run_sweep(config, run=TINY_RUN)


class TestMetricLabels:
    def test_known_metric(self):
        assert "transactions/second" in metric_label("throughput")

    def test_unknown_metric_passthrough(self):
        assert metric_label("weird_metric") == "weird_metric"


class TestFormatTable:
    def test_contains_all_algorithms_and_mpls(self, sweep):
        table = format_table(sweep, "throughput")
        assert "blocking" in table
        assert "optimistic" in table
        assert "\n    2" in table
        assert "\n    5" in table

    def test_with_ci_shows_half_width(self, sweep):
        table = format_table(sweep, "throughput", with_ci=True)
        assert "±" in table

    def test_values_are_numbers(self, sweep):
        table = format_table(sweep, "throughput")
        data_lines = [
            line for line in table.splitlines()
            if line and line[0] == " " and line.strip()[0].isdigit()
        ]
        assert len(data_lines) == 2


class TestAsciiPlot:
    def test_plot_contains_marks_and_legend(self, sweep):
        plot = ascii_plot(sweep, "throughput")
        assert "B=blocking" in plot
        assert "O=optimistic" in plot
        body = "\n".join(plot.splitlines()[1:-3])
        assert "B" in body or "*" in body
        assert "O" in body or "*" in body

    def test_plot_handles_zero_values(self, sweep):
        # Should not divide by zero even if a metric is all zeros.
        plot = ascii_plot(sweep, "restart_ratio")
        assert "max=" in plot


class TestSweepReport:
    def test_report_structure(self, sweep):
        report = sweep_report(sweep, figures=(8,))
        assert "Report rendering test" in report
        assert "(regenerates paper figure(s) 8)" in report
        assert "a note" in report
        assert "Throughput" in report
        assert "Total Disk Utilization" in report
        assert "[swept 4 configurations; 2 batches x 5s]" in report
        assert "figure(s)" not in sweep_report(sweep)

    def test_report_is_a_pure_function_of_the_results(self, sweep):
        # Two sweeps differing only in how long they took render
        # byte-identical reports, so a regenerated table moves only
        # when a number moves.
        slower = replace(sweep, wall_seconds=sweep.wall_seconds + 100.0)
        assert sweep_report(slower) == sweep_report(sweep)
        assert "wall time" not in sweep_report(sweep)

    def test_progress_line_carries_the_wall_time(self, sweep):
        lines = []
        swept = run_sweep(sweep.config, run=TINY_RUN, progress=lines.append)
        assert lines[-1] == (
            f"  report-test: swept 4 configurations in "
            f"{swept.wall_seconds:.1f}s wall time"
        )

    def test_report_without_plots(self, sweep):
        report = sweep_report(sweep, with_plots=False)
        assert "max=" not in report

    def test_classic_sweep_has_no_buffer_table(self, sweep):
        from repro.experiments.report import buffer_hit_table

        assert buffer_hit_table(sweep) is None
        report = sweep_report(sweep, with_plots=False)
        assert "Buffer pool" not in report
        assert "[resource model:" not in report


class TestBufferedSweepReport:
    @pytest.fixture(scope="class")
    def buffered_sweep(self):
        params = SimulationParameters(
            db_size=200, min_size=4, max_size=8, write_prob=0.25,
            num_terms=10, mpl=5, ext_think_time=0.5,
            obj_io=0.010, obj_cpu=0.005, num_cpus=1, num_disks=2,
            resource_model="buffered", buffer_capacity=50,
        )
        config = ExperimentConfig(
            experiment_id="buffered-report-test",
            title="Buffered report test",
            params=params,
            algorithms=("blocking",),
            mpls=(2, 5),
            metrics=("throughput", "disk_util"),
        )
        return run_sweep(config, run=TINY_RUN)

    def test_buffer_table_and_model_line(self, buffered_sweep):
        from repro.experiments.report import buffer_hit_table

        table = buffer_hit_table(buffered_sweep)
        assert table is not None
        assert "hit ratio" in table
        report = sweep_report(buffered_sweep, with_plots=False)
        assert "[resource model: buffered (LRU, 50 pages)]" in report
        assert "Buffer pool" in report
        assert "%" in report  # per-point hit-ratio cells render

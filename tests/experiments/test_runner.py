"""Tests for the sweep runner and its result container."""

import pytest

from repro.core import RunConfig, SimulationParameters
from repro.experiments import ExperimentConfig, run_sweep

TINY_RUN = RunConfig(batches=2, batch_time=5.0, warmup_batches=0, seed=11)


def tiny_config(**overrides):
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
    )
    defaults = dict(
        experiment_id="tiny",
        title="Tiny test sweep",
        params=params,
        algorithms=("blocking", "optimistic"),
        mpls=(2, 5),
        metrics=("throughput",),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRunSweep:
    def test_all_points_run(self):
        sweep = run_sweep(tiny_config(), run=TINY_RUN)
        assert set(sweep.results) == {
            ("blocking", 2), ("blocking", 5),
            ("optimistic", 2), ("optimistic", 5),
        }
        assert sweep.wall_seconds > 0

    def test_mpl_and_algorithm_restriction(self):
        sweep = run_sweep(
            tiny_config(), run=TINY_RUN, mpls=[5], algorithms=["blocking"]
        )
        assert set(sweep.results) == {("blocking", 5)}

    def test_series_sorted_by_mpl(self):
        sweep = run_sweep(tiny_config(), run=TINY_RUN)
        series = sweep.series("throughput", "blocking")
        assert [mpl for mpl, _, _ in series] == [2, 5]
        for _, mean, ci in series:
            assert mean == pytest.approx(ci.mean)

    def test_peak(self):
        sweep = run_sweep(tiny_config(), run=TINY_RUN)
        mpl, value = sweep.peak("throughput", "blocking")
        assert mpl in (2, 5)
        assert value > 0

    def test_peak_unknown_algorithm_raises(self):
        sweep = run_sweep(tiny_config(), run=TINY_RUN)
        with pytest.raises(KeyError):
            sweep.peak("throughput", "nonesuch")

    def test_progress_callback_invoked(self):
        lines = []
        run_sweep(
            tiny_config(), run=TINY_RUN, mpls=[2],
            algorithms=["blocking"], progress=lines.append,
        )
        # The point's line, then the sweep's wall-time line.
        assert len(lines) == 2
        assert "tiny" in lines[0]
        assert lines[1].startswith("  tiny: swept 1 configurations in ")

    def test_seed_override(self):
        a = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2],
                      algorithms=["blocking"])
        b = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2],
                      algorithms=["blocking"], seed=999)
        tps_a = a.result("blocking", 2).throughput
        tps_b = b.result("blocking", 2).throughput
        assert tps_a != tps_b

    def test_accessors(self):
        sweep = run_sweep(tiny_config(), run=TINY_RUN)
        assert sweep.algorithms() == ["blocking", "optimistic"]
        assert sweep.mpls() == [2, 5]
        assert sweep.result("blocking", 2).algorithm == "blocking"


class TestSweepResultEdgeCases:
    def test_empty_sweep_series_and_accessors(self):
        from repro.experiments import SweepResult

        empty = SweepResult(config=tiny_config(), run=TINY_RUN)
        assert empty.series("throughput", "blocking") == []
        assert empty.algorithms() == []
        assert empty.mpls() == []
        assert empty.failed_points() == []
        assert empty.complete  # vacuously: nothing attempted, nothing failed

    def test_empty_sweep_peak_raises(self):
        from repro.experiments import SweepResult

        empty = SweepResult(config=tiny_config(), run=TINY_RUN)
        with pytest.raises(KeyError, match="blocking"):
            empty.peak("throughput", "blocking")

    def test_single_point_sweep(self):
        sweep = run_sweep(tiny_config(), run=TINY_RUN, mpls=[5],
                          algorithms=["blocking"])
        series = sweep.series("throughput", "blocking")
        assert len(series) == 1
        mpl, mean, ci = series[0]
        assert mpl == 5
        assert mean == pytest.approx(ci.mean)
        # With one point, the peak IS that point.
        assert sweep.peak("throughput", "blocking") == (5, mean)
        # Other algorithms are absent, not zero-length-with-data.
        assert sweep.series("throughput", "optimistic") == []

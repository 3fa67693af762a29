"""Tests for the figure registry, its builder and the figure claims."""

from dataclasses import replace

import pytest

from repro.core import RunConfig
from repro.experiments import FigureBuilder, FigureData, experiment_configs
from repro.experiments import figures as figures_module
from repro.experiments.figures import (
    FIGURES,
    PINNED_RUN,
    THINK_RUN,
    figures_of,
    pinned_run,
)
from repro.experiments.runner import QUICK_RUN

TINY_RUN = RunConfig(batches=2, batch_time=5.0, warmup_batches=0, seed=17)
TINY_MPLS = (5, 25)


@pytest.fixture(scope="module")
def builder():
    return FigureBuilder(run=TINY_RUN, mpls=TINY_MPLS)


class TestFigureBuilder:
    def test_figure_out_of_range_rejected(self, builder):
        with pytest.raises(ValueError):
            builder.figure(2)
        with pytest.raises(ValueError):
            builder.figure(22)

    def test_figure8_series_structure(self, builder):
        data = builder.figure(8)
        assert data.figure == 8
        assert "1 CPU, 2 Disks" in data.title
        assert set(data.series) == {"throughput"}
        per_alg = data.series["throughput"]
        assert set(per_alg) == {
            "blocking", "immediate_restart", "optimistic"
        }
        for points in per_alg.values():
            assert [mpl for mpl, _, _ in points] == list(TINY_MPLS)
            for _, mean, ci in points:
                assert mean >= 0
                assert ci.n == TINY_RUN.batches

    def test_figures_sharing_experiment_share_sweep(self, builder):
        fig8 = builder.figure(8)
        fig9 = builder.figure(9)
        assert fig8.sweep is fig9.sweep  # one simulation, two figures

    def test_figure9_has_both_utilizations(self, builder):
        data = builder.figure(9)
        assert set(data.series) == {"disk_util", "disk_util_useful"}

    def test_values_and_peak_helpers(self, builder):
        data = builder.figure(8)
        values = data.values("throughput", "blocking")
        assert len(values) == len(TINY_MPLS)
        mpl, peak = data.peak("throughput", "blocking")
        assert peak == max(v for _, v in values)

    def test_describe_mentions_figure(self, builder):
        text = builder.figure(8).describe()
        assert "Figure 8" in text
        assert "blocking" in text

    def test_useful_never_exceeds_total_utilization(self, builder):
        data = builder.figure(9)
        for algorithm in data.algorithms():
            total = dict(data.values("disk_util", algorithm))
            useful = dict(data.values("disk_util_useful", algorithm))
            for mpl in total:
                assert useful[mpl] <= total[mpl] + 1e-9


class TestRegistry:
    def test_covers_exactly_figures_3_to_21(self):
        assert sorted(FIGURES) == list(range(3, 22))
        for number, entry in FIGURES.items():
            assert entry.number == number

    def test_every_entry_has_a_claim_and_a_pinned_run(self):
        for entry in FIGURES.values():
            assert callable(entry.claim)
            assert entry.claim.__doc__.startswith(f"Figure {entry.number}")
            assert isinstance(entry.run, RunConfig)
            assert entry.title

    def test_entries_point_to_real_experiments_and_metrics(self):
        configs = experiment_configs()
        for entry in FIGURES.values():
            config = configs[entry.experiment_id]
            for metric in entry.metrics:
                assert metric in config.metrics

    def test_figures_of_one_experiment_share_one_pinned_run(self):
        for entry in FIGURES.values():
            assert pinned_run(entry.experiment_id) == entry.run
        assert pinned_run("exp3_finite") == PINNED_RUN
        assert pinned_run("exp5_think_10s") == THINK_RUN
        assert pinned_run("exp6_disk_faults") is None

    def test_figures_of(self):
        assert figures_of("exp2_infinite") == (5, 6, 7)
        assert figures_of("exp3_adaptive_delay") == (11,)
        assert figures_of("exp7_buffered") == ()

    def test_pinned_means_unchanged(self):
        assert FigureBuilder().pinned
        # Execution options do not change a number.
        assert FigureBuilder(workers=2, checkpoint_dir="ckpt").pinned
        for changed in (
            FigureBuilder(run=QUICK_RUN),
            FigureBuilder(run=PINNED_RUN),
            FigureBuilder(mpls=[5]),
            FigureBuilder(algorithms=["blocking"]),
            FigureBuilder(resource_model="buffered"),
            FigureBuilder(nodes=2),
            FigureBuilder(replications=2),
        ):
            assert not changed.pinned

    def test_unpinned_builds_are_not_checked(self, builder):
        reproduction = builder.reproduce(8)
        assert reproduction.failures is None
        assert reproduction.text == reproduction.data.report()
        assert reproduction.text.endswith(
            reproduction.data.describe() + "\n"
        )
        assert "(regenerates paper figure(s) 8, 9, 10)" in reproduction.text

    def test_pinned_builds_check_every_point_and_the_claim(
        self, builder, monkeypatch
    ):
        def over_the_ceiling(result):
            raise AssertionError("over the ceiling")

        monkeypatch.setattr(FigureBuilder, "pinned", property(lambda _: True))
        monkeypatch.setattr(
            figures_module, "check_result_against_bounds", over_the_ceiling
        )
        monkeypatch.setitem(
            FIGURES, 8,
            replace(FIGURES[8], claim=lambda data, b: ["Figure 8: forced"]),
        )
        failures = builder.reproduce(8).failures
        # One message per point of the 3 x 2 grid, then the claim's.
        assert len(failures) == 7
        assert failures[0] == (
            "Figure 8: blocking mpl=5 breaks the operational bounds: "
            "over the ceiling"
        )
        assert failures[-1] == "Figure 8: forced"


MPLS = (5, 10, 25, 50, 75, 100, 200)

#: Paper-shaped series: blocking peaks highest at mpl=25, the restart
#: strategies peak at mpl=10 and decline (Figure 8).
FIG8 = {
    "blocking": (3.9, 5.0, 5.8, 5.5, 4.7, 4.2, 3.5),
    "immediate_restart": (4.0, 4.5, 4.2, 3.7, 3.4, 3.4, 3.3),
    "optimistic": (4.0, 4.4, 4.0, 3.4, 3.0, 2.8, 2.5),
}
#: Adaptive delays for all: the curves flatten instead of diving.
FIG11 = {
    "blocking": (3.9, 5.0, 5.8, 5.6, 5.5, 5.4, 5.3),
    "immediate_restart": (4.0, 4.5, 4.2, 3.7, 3.4, 3.4, 3.3),
    "optimistic": (4.0, 4.4, 4.0, 3.6, 3.5, 3.4, 3.3),
}
#: 25 CPUs / 50 disks: optimistic edges past blocking, which thrashes.
FIG14 = {
    "blocking": (8.0, 16.0, 38.0, 44.8, 36.0, 24.7, 17.1),
    "immediate_restart": (8.0, 15.0, 30.0, 33.0, 32.0, 31.0, 30.0),
    "optimistic": (8.0, 16.0, 36.0, 44.0, 47.0, 48.0, 46.0),
}


def synthetic(number, throughput):
    """A FigureData plotting ``throughput[algorithm]`` over MPLS."""
    entry = FIGURES[number]
    return FigureData(
        figure=number, title=entry.title,
        experiment_id=entry.experiment_id,
        series={"throughput": {
            algorithm: [(mpl, value, None) for mpl, value in zip(MPLS, values)]
            for algorithm, values in throughput.items()
        }},
    )


def flipped(throughput):
    """Swap blocking's and optimistic's series."""
    return {
        **throughput,
        "blocking": throughput["optimistic"],
        "optimistic": throughput["blocking"],
    }


class StubBuilder:
    """Serves one prebuilt figure and records what a claim asks for."""

    def __init__(self, number, data):
        self.figures = {number: data}
        self.requested = []

    def figure(self, number):
        self.requested.append(number)
        return self.figures[number]


class TestClaims:
    def test_fig8_holds_for_the_paper_shape(self):
        assert FIGURES[8].claim(synthetic(8, FIG8), None) == []

    def test_fig8_fails_when_blocking_and_optimistic_swap(self):
        failures = FIGURES[8].claim(synthetic(8, flipped(FIG8)), None)
        assert "Figure 8: blocking must beat optimistic at its peak" in (
            failures
        )
        assert all(message.startswith("Figure 8: ") for message in failures)

    def test_fig14_holds_for_the_paper_shape(self):
        assert FIGURES[14].claim(synthetic(14, FIG14), None) == []

    def test_fig14_fails_when_blocking_and_optimistic_swap(self):
        failures = FIGURES[14].claim(synthetic(14, flipped(FIG14)), None)
        assert failures
        assert failures[0].startswith(
            "Figure 14: optimistic (44.80) should edge past blocking (48.00)"
        )

    def test_fig11_reads_fig8_from_the_builder(self):
        builder = StubBuilder(8, synthetic(8, FIG8))
        assert FIGURES[11].claim(synthetic(11, FIG11), builder) == []
        assert builder.requested == [8]

    def test_fig11_fails_when_the_delay_does_not_arrest_thrashing(self):
        # Flip the two figures: the "delayed" curves now dive while the
        # undelayed Figure 8 baseline holds up.
        builder = StubBuilder(8, synthetic(8, FIG11))
        failures = FIGURES[11].claim(synthetic(11, FIG8), builder)
        assert any(
            message.startswith(
                "Figure 11: the delay should arrest optimistic's"
            )
            for message in failures
        )

    def test_every_claim_names_its_figure(self):
        data = synthetic(8, flipped(FIG8))
        for number in (8, 12, 14):
            failures = FIGURES[number].claim(replace(data, figure=number), None)
            assert failures
            assert all(
                message.startswith(f"Figure {number}: ")
                for message in failures
            )

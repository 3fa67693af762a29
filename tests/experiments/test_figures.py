"""Tests for the claim registry (figures and findings), its builder and
the claims."""

import functools
import os
from dataclasses import replace

import pytest

from repro.cc.blocking import BlockingCC
from repro.core import RunConfig
from repro.experiments import FigureBuilder, FigureData, experiment_configs
from repro.experiments import figures as figures_module
from repro.experiments.figures import (
    FIGURES,
    FINDINGS,
    PINNED_RUN,
    THINK_RUN,
    FindingData,
    algorithm_label,
    figures_of,
    pinned_run,
    registry_keys,
    table_name,
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


RESULTS_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "results"
)


class TestFindingRegistry:
    def test_eight_findings_of_49_arms(self):
        assert list(FINDINGS) == [
            "restart_delay", "victim_policy", "extensions",
            "static_locking", "hotspot", "deadlock_detection",
            "upgrade_policy", "granularity",
        ]
        assert sum(len(entry.arms) for entry in FINDINGS.values()) == 49

    def test_every_entry_has_a_claim_pinned_run_and_unique_arms(self):
        for name, entry in FINDINGS.items():
            assert entry.name == name
            assert entry.claim.__doc__.startswith(f"{name} — ")
            assert entry.run == PINNED_RUN
            keys = [
                (label, algorithm_label(algorithm))
                for label, _, algorithm in entry.arms
            ]
            assert len(set(keys)) == len(keys)

    def test_registry_keys_are_figures_then_findings(self):
        assert registry_keys() == [*range(3, 22), *FINDINGS]

    def test_every_key_has_exactly_one_table(self):
        tables = sorted(os.listdir(RESULTS_DIR))
        expected = sorted(table_name(key) for key in registry_keys())
        # No table without a key, no key without a table.
        assert tables == expected
        assert table_name(3) == "figure03.txt"
        assert table_name("victim_policy") == "victim_policy.txt"

    def test_algorithm_label(self):
        assert algorithm_label("mvto") == "mvto"
        assert algorithm_label(
            functools.partial(BlockingCC, victim_policy="oldest")
        ) == "blocking(victim_policy=oldest)"

    def test_unknown_finding_rejected(self, builder):
        with pytest.raises(ValueError, match="victim_policy"):
            builder.finding("no_such_finding")


class TestFindingBuilder:
    def test_unpinned_finding_runs_every_arm_unchecked(self, builder):
        reproduction = builder.reproduce("upgrade_policy")
        assert reproduction.failures is None
        data = reproduction.data
        assert [(label, algorithm) for label, algorithm, _ in data.arms] == [
            ("upgrade", "blocking"),
            ("immediate_exclusive",
             "blocking(write_lock_policy=immediate_exclusive)"),
        ]
        assert data.run == TINY_RUN
        assert data["upgrade"].algorithm == "blocking"
        lines = reproduction.text.splitlines()
        assert lines[1].startswith("Finding upgrade_policy: ")
        assert lines[2] == (
            "(run: 2 batches of 5 s after 0 warmup, seed 17; throughput "
            "± 90% half-width)"
        )
        assert lines[4].split() == [
            "label", "algorithm", "throughput", "(tps)",
            "blocks/commit", "restarts/commit",
        ]
        assert len(lines) == 6 + len(data.arms)

    def test_overlays_apply_to_every_arm(self):
        data = FigureBuilder(run=TINY_RUN, nodes=2).finding("upgrade_policy")
        assert all(result.params.nodes == 2 for _, _, result in data.arms)

    def test_arms_failing_their_deadline_fail_the_pinned_finding(self):
        # A deadline no batch can meet fails every arm; the pinned
        # check names each failed arm instead of evaluating the claim.
        reproduction = FigureBuilder(deadline=1e-9).reproduce(
            "upgrade_policy"
        )
        assert reproduction.data.arms == []
        assert not reproduction.data.sweep.complete
        assert [
            message.split(" failed (")[0]
            for message in reproduction.failures
        ] == [
            "upgrade_policy: immediate_exclusive "
            "[blocking(write_lock_policy=immediate_exclusive)]",
            "upgrade_policy: upgrade [blocking]",
        ]
        assert all("PointDeadlineExceeded" in message
                   for message in reproduction.failures)
        assert reproduction.text.startswith("=" * 72)

    def test_pooled_arms_match_serial_arms(self):
        # workers=2 runs the arms (one of them a functools.partial CC
        # factory) on run_sweep's process pool; each arm is the same
        # seeded run.
        serial = FigureBuilder(run=TINY_RUN).finding("upgrade_policy")
        pooled = FigureBuilder(run=TINY_RUN, workers=2).finding(
            "upgrade_policy"
        )
        assert [(label, algorithm, result.totals)
                for label, algorithm, result in pooled.arms] == [
            (label, algorithm, result.totals)
            for label, algorithm, result in serial.arms
        ]

    def test_pinned_finding_checks_every_arm_and_the_claim(self, monkeypatch):
        def over_the_ceiling(result):
            raise AssertionError("over the ceiling")

        monkeypatch.setattr(
            figures_module, "check_result_against_bounds", over_the_ceiling
        )
        monkeypatch.setitem(FINDINGS, "upgrade_policy", replace(
            FINDINGS["upgrade_policy"], run=TINY_RUN,
            claim=lambda data: ["upgrade_policy: forced"],
        ))
        failures = FigureBuilder().reproduce("upgrade_policy").failures
        assert failures == [
            "upgrade_policy: upgrade [blocking] breaks the operational "
            "bounds: over the ceiling",
            "upgrade_policy: immediate_exclusive "
            "[blocking(write_lock_policy=immediate_exclusive)] breaks the "
            "operational bounds: over the ceiling",
            "upgrade_policy: forced",
        ]

    def test_lookup_needs_exactly_one_arm(self):
        data = FindingData("x", "x", TINY_RUN, [
            ("a", "blocking", 1), ("a", "optimistic", 2), ("b", "mvto", 3),
        ])
        assert data["b"] == 3
        assert data["a", "optimistic"] == 2
        with pytest.raises(KeyError):
            data["a"]
        with pytest.raises(KeyError):
            data["c"]


class StubResult:
    """What a finding's claim reads of a SimulationResult."""

    def __init__(self, throughput, blocks=0.0, restarts=0.0, commits=500,
                 restart_count=None):
        self.throughput = throughput
        self._means = {"block_ratio": blocks, "restart_ratio": restarts}
        if restart_count is None:
            restart_count = round(restarts * commits)
        self.totals = {"commits": commits, "restarts": restart_count}

    def mean(self, name):
        return self._means[name]


def finding_data(name, results):
    """FindingData of finding ``name`` with ``results`` in arm order."""
    entry = FINDINGS[name]
    assert len(results) == len(entry.arms)
    return FindingData(name, entry.title, entry.run, [
        (label, algorithm_label(algorithm), result)
        for (label, _, algorithm), result in zip(entry.arms, results)
    ])


def stubs(throughputs, blocks=None, restarts=None):
    blocks = blocks or [0.0] * len(throughputs)
    restarts = restarts or [0.0] * len(throughputs)
    return [
        StubResult(t, b, r) for t, b, r in zip(throughputs, blocks, restarts)
    ]


#: Finding -> (results the claim accepts, results it rejects, a message
#: the rejection carries), each shaped like the pinned table.
SYNTHETIC = {
    "restart_delay": (
        stubs([24.75, 33.96, 50.81, 34.83, 18.67, 49.31]),
        stubs([24.75, 33.96, 40.0, 45.0, 50.81, 20.0]),
        "optimum delay should be interior, got fixed 60 s",
    ),
    "victim_policy": (
        stubs([4.675, 4.512, 4.625]),
        stubs([4.675, 1.2 * 4.675, 4.625]),
        "youngest should not lose to oldest by more than 10%",
    ),
    "extensions": (
        stubs(
            [5.46, 4.62, 4.51, 4.60, 4.62, 5.28, 5.03,
             4.68, 2.49, 3.06, 2.67, 2.71, 4.30, 3.33],
        ),
        stubs(
            [5.46, 4.62, 4.51, 4.60, 4.62, 5.28, 5.03,
             4.68, 2.49, 3.06, 2.67, 2.71, 4.30, 3.33],
            blocks=[0.0] * 4 + [0.01] + [0.0] * 9,
        ),
        "mvto must never block a read (mpl 25)",
    ),
    "static_locking": (
        stubs(
            [4.98, 5.46, 4.68, 3.54, 4.91, 5.60, 5.69, 5.69],
            restarts=[0.005, 0.037, 0.245, 0.775, 0.0, 0.0, 0.0, 0.0],
        ),
        stubs(
            [4.98, 5.46, 4.68, 3.54, 4.91, 5.60, 5.69, 5.69],
            restarts=[0.005, 0.037, 0.245, 0.775, 0.0, 0.0, 0.1, 0.0],
        ),
        "static locking must never restart (mpl 100)",
    ),
    "hotspot": (
        stubs(
            [5.15, 3.91, 4.81, 3.14, 2.64, 1.90, 0.76, 0.86],
            blocks=[0.83, 0.0, 1.36, 0.0, 5.75, 0.0, 28.20, 0.0],
            restarts=[0.0, 0.51, 0.0, 0.94, 0.0, 2.35, 0.0, 6.73],
        ),
        stubs(
            [5.15, 3.91, 4.81, 3.14, 2.64, 1.90, 2.0, 0.86],
            blocks=[0.83, 0.0, 1.36, 0.0, 5.75, 0.0, 5.0, 0.0],
            restarts=[0.0, 0.51, 0.0, 0.94, 0.0, 2.35, 0.0, 6.73],
        ),
        "blocking should exceed 10 blocks/commit at extreme 2/80",
    ),
    "deadlock_detection": (
        stubs([2.50, 2.50, 1.89, 0.66]),
        stubs([1.0, 2.50, 1.89, 0.66]),
        "on-block detection should reach 85% of the best periodic scan",
    ),
    "upgrade_policy": (
        stubs([2.60, 3.30], restarts=[1.217, 0.324]),
        stubs([2.60, 3.30], restarts=[1.217, 1.5]),
        "immediate_exclusive should not restart more than upgrade",
    ),
    "granularity": (
        stubs(
            [0.45, 0.57, 2.65, 5.46],
            blocks=[31.18, 31.66, 4.97, 0.37],
            restarts=[15.08, 12.92, 1.35, 0.04],
        ),
        stubs(
            [0.45, 0.57, 2.65, 3.0],
            blocks=[31.18, 31.66, 4.97, 0.37],
            restarts=[15.08, 12.92, 1.35, 0.04],
        ),
        "object-level locking should beat 100 granules by 1.5x",
    ),
}


class TestFindingClaims:
    def test_every_finding_has_synthetic_cases(self):
        assert set(SYNTHETIC) == set(FINDINGS)

    @pytest.mark.parametrize("name", sorted(SYNTHETIC))
    def test_claim_holds_for_the_pinned_shape(self, name):
        holding, _, _ = SYNTHETIC[name]
        assert FINDINGS[name].claim(finding_data(name, holding)) == []

    @pytest.mark.parametrize("name", sorted(SYNTHETIC))
    def test_claim_fails_when_the_shape_breaks(self, name):
        _, failing, message = SYNTHETIC[name]
        failures = FINDINGS[name].claim(finding_data(name, failing))
        assert f"{name}: {message}" in failures
        assert all(failure.startswith(f"{name}: ") for failure in failures)

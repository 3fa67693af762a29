"""Exploration driver: space mechanics, flagging, spot-check logic.

Spot-check dispatch is tested against a stubbed ``run_sweep`` so the
triggering logic (threshold -> flagged -> budget -> simulation) is
exercised without paying for real simulations; one smoke-sized real
run lives in the CI surrogate-smoke step instead.
"""

from types import SimpleNamespace

import pytest

import repro.analytic.explore as explore_module
from repro.analytic.contention import surrogate_prediction
from repro.analytic.explore import (
    ExplorationReport,
    ExplorationSpace,
    MAX_FLAGGED_RETAINED,
    _crossovers,
    default_space,
    explore,
    smoke_space,
)

TINY = ExplorationSpace(
    db_sizes=(200, 2000),
    max_sizes=(12,),
    num_disks=(2,),
    num_cpus=(1,),
    write_probs=(0.5,),
    ext_think_times=(1.0,),
    mpls=(5, 50),
    algorithms=("blocking", "optimistic"),
)


class TestSpace:
    def test_counts(self):
        assert TINY.config_count() == 2
        assert TINY.size() == 8

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="db_sizes"):
            ExplorationSpace(
                db_sizes=(), max_sizes=(8,), num_disks=(1,),
                num_cpus=(1,), write_probs=(0.25,),
                ext_think_times=(1.0,), mpls=(5,),
                algorithms=("blocking",),
            )

    @pytest.mark.parametrize("mpl", [0, -5])
    def test_non_positive_mpl_rejected(self, mpl):
        with pytest.raises(ValueError, match="mpls must be >= 1"):
            ExplorationSpace(
                db_sizes=(1000,), max_sizes=(8,), num_disks=(1,),
                num_cpus=(1,), write_probs=(0.25,),
                ext_think_times=(1.0,), mpls=(5, mpl),
                algorithms=("blocking",),
            )

    def test_configurations_shrink_min_size(self):
        space = ExplorationSpace(
            db_sizes=(1000,), max_sizes=(2,), num_disks=(1,),
            num_cpus=(1,), write_probs=(0.25,),
            ext_think_times=(1.0,), mpls=(5,),
            algorithms=("blocking",),
        )
        (axes, params), = space.configurations()
        assert params.max_size == 2
        assert params.min_size <= 2
        assert axes["db_size"] == 1000

    def test_default_space_is_large(self):
        assert default_space().size() >= 100_000

    def test_smoke_space_is_tiny(self):
        assert smoke_space().size() <= 100

    def test_as_dict_roundtrip_keys(self):
        data = TINY.as_dict()
        assert ExplorationSpace(**{
            key: tuple(value) for key, value in data.items()
        }) == TINY


class TestExplore:
    def test_optimal_surface_covers_every_configuration(self):
        report = explore(space=TINY)
        assert report.evaluations == TINY.size()
        assert len(report.optimal) == TINY.config_count()
        for record in report.optimal:
            for algorithm in TINY.algorithms:
                best = record["best"][algorithm]
                assert best["mpl"] in TINY.mpls
                assert best["throughput"] > 0.0
            assert record["winner"] in TINY.algorithms
            assert record["bo_winner"] in ("blocking", "optimistic")

    def test_high_threshold_flags_nothing(self):
        report = explore(space=TINY, threshold=1e9)
        assert report.flagged_count == 0
        assert report.flagged == []
        assert report.spot_checks == []

    def test_low_threshold_flags_and_ranks(self):
        report = explore(space=TINY, threshold=1e-9)
        assert report.flagged_count > 0
        assert len(report.flagged) <= MAX_FLAGGED_RETAINED
        uncertainties = [f["uncertainty"] for f in report.flagged]
        assert uncertainties == sorted(uncertainties, reverse=True)

    def test_deterministic(self):
        first = explore(space=TINY, threshold=0.5)
        second = explore(space=TINY, threshold=0.5)
        assert first.optimal == second.optimal
        assert first.flagged == second.flagged
        assert first.flagged_count == second.flagged_count


class TestExploreParity:
    """``explore`` against a reference built one parameter set per mpl.

    The reference predicts every point from
    ``params.with_changes(mpl=m)``; the report must match it record for
    record across clamped and unclamped points, both bindings, a
    read-only write probability, pooled CPUs and several disks; the
    space has crossovers and more flagged points than are retained.
    """

    SPACE = ExplorationSpace(
        db_sizes=(100, 500, 1000),
        max_sizes=(8, 24),
        num_disks=(1, 8),
        num_cpus=(1, 2, 10),
        write_probs=(0.0, 0.75),
        ext_think_times=(1.0,),
        mpls=(5, 50, 200),
        algorithms=("blocking", "immediate_restart", "optimistic"),
    )

    def reference(self):
        """``(optimal, flagged, predictions)`` in evaluation order."""
        optimal, flagged, predictions = [], [], []
        for axes, params in self.SPACE.configurations():
            best = {}
            for algorithm in self.SPACE.algorithms:
                points = []
                for mpl in self.SPACE.mpls:
                    prediction = surrogate_prediction(
                        params.with_changes(mpl=mpl), algorithm
                    )
                    predictions.append(prediction)
                    uncertainty = prediction.uncertainty()
                    points.append((mpl, prediction, uncertainty))
                    if uncertainty > 1.0:
                        flagged.append({
                            "axes": axes,
                            "algorithm": algorithm,
                            "mpl": mpl,
                            "predicted": prediction.throughput,
                            "uncertainty": uncertainty,
                        })
                # On a throughput tie the first mpl stays.
                mpl, prediction, _ = max(
                    points, key=lambda point: point[1].throughput
                )
                best[algorithm] = {
                    "mpl": mpl,
                    "throughput": prediction.throughput,
                    "uncertainty": max(u for _, _, u in points),
                }
            record = dict(axes)
            record["best"] = best
            record["winner"] = max(
                self.SPACE.algorithms, key=lambda a: best[a]["throughput"]
            )
            record["bo_winner"] = (
                "blocking"
                if best["blocking"]["throughput"]
                >= best["optimistic"]["throughput"]
                else "optimistic"
            )
            optimal.append(record)
        return optimal, flagged, predictions

    def test_report_matches_reference(self):
        optimal, flagged, predictions = self.reference()
        assert any(p.clamped for p in predictions)
        assert any(not p.clamped for p in predictions)
        assert {p.binding for p in predictions} == {
            "admission", "population"
        }
        report = explore(space=self.SPACE)
        assert report.evaluations == len(predictions) == self.SPACE.size()
        assert report.optimal == optimal
        assert report.crossovers == _crossovers(optimal)
        assert report.crossovers
        assert report.flagged_count == len(flagged) > MAX_FLAGGED_RETAINED
        ranked = sorted(flagged, key=lambda f: -f["uncertainty"])
        assert report.flagged == ranked[:MAX_FLAGGED_RETAINED]


class TestFlaggedRetention:
    #: 144 evaluations, 74 of them flagged at ``max_index`` 20.
    #: Points tie at the clamp floor of 2.0, and the 64th and 65th
    #: most uncertain tie too, so the cap cuts through a tie.
    HOT = ExplorationSpace(
        db_sizes=(100, 250, 1000),
        max_sizes=(12, 24),
        num_disks=(2,),
        num_cpus=(1,),
        write_probs=(0.25, 1.0),
        ext_think_times=(1.0,),
        mpls=(5, 25, 100, 200),
        algorithms=("blocking", "immediate_restart", "optimistic"),
    )
    MAX_INDEX = 20.0

    def all_flagged(self):
        """Every flagged point, in evaluation order."""
        flagged = []
        for axes, params in self.HOT.configurations():
            for algorithm in self.HOT.algorithms:
                for mpl in self.HOT.mpls:
                    prediction = surrogate_prediction(
                        params.with_changes(mpl=mpl), algorithm
                    )
                    uncertainty = prediction.uncertainty(self.MAX_INDEX)
                    if uncertainty > 1.0:
                        flagged.append({
                            "axes": axes,
                            "algorithm": algorithm,
                            "mpl": mpl,
                            "predicted": prediction.throughput,
                            "uncertainty": uncertainty,
                        })
        return flagged

    def test_matches_sort_then_slice(self):
        flagged = self.all_flagged()
        ranked = sorted(flagged, key=lambda f: -f["uncertainty"])
        assert len(flagged) > MAX_FLAGGED_RETAINED
        uncertainties = [f["uncertainty"] for f in ranked]
        assert uncertainties.count(2.0) > 1
        assert (
            uncertainties[MAX_FLAGGED_RETAINED - 1]
            == uncertainties[MAX_FLAGGED_RETAINED]
        )
        report = explore(space=self.HOT, max_index=self.MAX_INDEX)
        assert report.flagged_count == len(flagged)
        assert report.flagged == ranked[:MAX_FLAGGED_RETAINED]


class TestSpotCheckTriggering:
    def stub_run_sweep(self, calls, throughput=1.0):
        def fake_run_sweep(config, run=None, progress=None, workers=1):
            calls.append(config)
            key = (config.algorithms[0], config.mpls[0])
            return SimpleNamespace(
                results={key: SimpleNamespace(throughput=throughput)}
            )
        return fake_run_sweep

    def test_budget_zero_never_simulates(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            explore_module, "run_sweep", self.stub_run_sweep(calls)
        )
        report = explore(
            space=TINY, threshold=1e-9, spot_check_budget=0
        )
        assert report.flagged_count > 0
        assert calls == []
        assert report.spot_checks == []

    def test_budget_caps_dispatches(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            explore_module, "run_sweep", self.stub_run_sweep(calls)
        )
        report = explore(
            space=TINY, threshold=1e-9, spot_check_budget=2
        )
        assert len(calls) == 2
        assert len(report.spot_checks) == 2
        # The most uncertain flagged points go first.
        assert [c["uncertainty"] for c in report.spot_checks] == [
            f["uncertainty"] for f in report.flagged[:2]
        ]

    def test_spot_check_records_divergence(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            explore_module, "run_sweep",
            self.stub_run_sweep(calls, throughput=2.0),
        )
        report = explore(
            space=TINY, threshold=1e-9, spot_check_budget=1
        )
        check, = report.spot_checks
        assert check["status"] == "ok"
        assert check["simulated"] == 2.0
        assert check["abs_rel_error"] == pytest.approx(
            abs(check["predicted"] - 2.0) / 2.0
        )

    def test_failed_point_degrades_not_raises(self, monkeypatch):
        def empty_run_sweep(config, run=None, progress=None, workers=1):
            return SimpleNamespace(results={})
        monkeypatch.setattr(
            explore_module, "run_sweep", empty_run_sweep
        )
        report = explore(
            space=TINY, threshold=1e-9, spot_check_budget=1
        )
        check, = report.spot_checks
        assert check["status"] == "failed"
        assert check["simulated"] is None

    def test_no_flags_means_no_spot_checks(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            explore_module, "run_sweep", self.stub_run_sweep(calls)
        )
        report = explore(
            space=TINY, threshold=1e9, spot_check_budget=5
        )
        assert calls == []
        assert report.spot_checks == []


class TestCrossovers:
    def record(self, db_size, bo_winner):
        return {
            "db_size": db_size, "max_size": 8, "num_disks": 1,
            "num_cpus": 1, "write_prob": 0.25, "ext_think_time": 1.0,
            "best": {}, "winner": bo_winner, "bo_winner": bo_winner,
        }

    def test_flip_detected(self):
        crossings = _crossovers([
            self.record(250, "optimistic"),
            self.record(1000, "blocking"),
        ])
        assert len(crossings) == 1
        assert crossings[0]["db_low"] == 250
        assert crossings[0]["winner_low"] == "optimistic"
        assert crossings[0]["db_high"] == 1000
        assert crossings[0]["winner_high"] == "blocking"

    def test_no_flip_no_crossover(self):
        crossings = _crossovers([
            self.record(250, "blocking"),
            self.record(1000, "blocking"),
        ])
        assert crossings == []

    def test_groups_do_not_mix_other_axes(self):
        records = [
            self.record(250, "optimistic"),
            self.record(1000, "blocking"),
        ]
        records[1]["max_size"] = 24  # different group: no adjacency
        assert _crossovers(records) == []


class TestReportPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        report = explore(space=TINY, threshold=0.5)
        path = tmp_path / "exploration.json"
        report.save(str(path))
        restored = ExplorationReport.load(str(path))
        assert restored.evaluations == report.evaluations
        assert restored.optimal == report.optimal
        assert restored.flagged == report.flagged
        assert restored.threshold == report.threshold

    def test_summary_mentions_key_numbers(self):
        report = explore(space=TINY, threshold=0.5)
        summary = report.summary()
        assert str(report.evaluations) in summary
        assert "flagged" in summary

"""Tests for saving/reloading experiment sweeps."""

import dataclasses
import json

import pytest

from repro.core import RunConfig
from repro.experiments import (
    PointStatus,
    SweepResult,
    experiment_configs,
    format_table,
    load_sweep,
    run_sweep,
    save_sweep,
    sweep_report,
)

TINY_RUN = RunConfig(batches=3, batch_time=6.0, warmup_batches=0, seed=47)


@pytest.fixture(scope="module")
def sweep():
    config = experiment_configs()["exp3_finite"]
    return run_sweep(
        config, run=TINY_RUN, mpls=[5, 25], algorithms=["blocking"]
    )


class TestRoundTrip:
    def test_values_survive(self, sweep, tmp_path):
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        loaded = load_sweep(path)
        assert loaded.config.experiment_id == "exp3_finite"
        assert loaded.run == TINY_RUN
        for key, original in sweep.results.items():
            restored = loaded.results[key]
            for metric in ("throughput", "disk_util", "response_time"):
                assert restored.mean(metric) == pytest.approx(
                    original.mean(metric)
                )
                assert restored.interval(metric).half_width == (
                    pytest.approx(original.interval(metric).half_width)
                )

    def test_reports_render_from_loaded_sweep(self, sweep, tmp_path):
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        loaded = load_sweep(path)
        table = format_table(loaded, "throughput", with_ci=True)
        assert "blocking" in table
        report = sweep_report(loaded, with_plots=False)
        assert "Resource-Limited" in report

    def test_totals_preserved(self, sweep, tmp_path):
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        loaded = load_sweep(path)
        original = sweep.results[("blocking", 5)].totals
        restored = loaded.results[("blocking", 5)].totals
        assert restored["commits"] == original["commits"]


class TestErrors:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a saved sweep"):
            load_sweep(path)

    def test_overlaid_params_rejected(self, tmp_path):
        # A sweep run with a field overlaid on the preset must not load
        # back labelled with the preset's params.
        preset = experiment_configs()["exp3_finite"]
        overlaid = dataclasses.replace(
            preset,
            params=preset.params.with_changes(resource_model="buffered"),
        )
        sweep = run_sweep(
            overlaid, run=TINY_RUN, mpls=[5], algorithms=["blocking"]
        )
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        document = json.loads(path.read_text())
        assert document["fingerprint"] == overlaid.params.fingerprint()
        with pytest.raises(ValueError, match="resource_model"):
            load_sweep(path)

    def test_document_without_params_loads(self, sweep, tmp_path):
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        document = json.loads(path.read_text())
        del document["params"], document["fingerprint"]
        path.write_text(json.dumps(document))
        assert load_sweep(path).results.keys() == sweep.results.keys()

    def test_document_without_statuses_refused(self, sweep, tmp_path):
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        document = json.loads(path.read_text())
        del document["statuses"]
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="start fresh"):
            load_sweep(path)

    def test_point_without_status_refused(self, sweep, tmp_path):
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        document = json.loads(path.read_text())
        document["statuses"] = document["statuses"][1:]
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="without a status entry"):
            load_sweep(path)

    def test_unknown_experiment_rejected(self, sweep, tmp_path):
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        document = json.loads(path.read_text())
        document["experiment_id"] = "exp99_imaginary"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="unknown experiment"):
            load_sweep(path)


class TestOneReplicationLayout:
    """An R=1 document has one layout, however its sweep was filled."""

    def test_layout_is_pinned(self, sweep, tmp_path):
        layout = SweepResult(config=sweep.config, run=TINY_RUN)
        # Recorded out of grid order; the document sorts them.
        layout.record_replicate(
            "blocking", 25, 0, sweep.result("blocking", 25),
            PointStatus("ok"),
        )
        layout.record_replicate(
            "blocking", 10, 0, None,
            PointStatus("failed", error="SimulationStalledError: stuck"),
        )
        layout.record_replicate(
            "blocking", 5, 0, sweep.result("blocking", 5),
            PointStatus("ok"),
        )
        path = tmp_path / "sweep.json"
        save_sweep(layout, path)
        document = json.loads(path.read_text())
        assert "replications" not in document
        assert [(p["algorithm"], p["mpl"]) for p in document["points"]] == [
            ("blocking", 5), ("blocking", 25),
        ]
        assert [
            (s["algorithm"], s["mpl"], s["status"])
            for s in document["statuses"]
        ] == [
            ("blocking", 5, "ok"),
            ("blocking", 10, "failed"),
            ("blocking", 25, "ok"),
        ]
        for point in document["points"]:
            assert list(point) == ["algorithm", "mpl", "series", "totals"]
        for status in document["statuses"]:
            assert list(status) == [
                "algorithm", "mpl", "status", "attempts", "error",
                "wall_seconds",
            ]

    def test_reloaded_sweep_saves_the_same_bytes(self, sweep, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_sweep(sweep, first)
        save_sweep(load_sweep(first), second)
        assert second.read_text() == first.read_text()

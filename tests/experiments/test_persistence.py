"""Tests for saving/reloading experiment sweeps."""

import dataclasses
import json

import pytest

from repro.core import RunConfig
from repro.experiments import (
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

    def test_unknown_experiment_rejected(self, sweep, tmp_path):
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        document = json.loads(path.read_text())
        document["experiment_id"] = "exp99_imaginary"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="unknown experiment"):
            load_sweep(path)

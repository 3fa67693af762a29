"""Tests for saving/reloading experiment sweeps."""

import json

import pytest

from repro.chaos import garble_tail, truncate_tail
from repro.core import RunConfig
from repro.experiments import (
    CheckpointMismatchError,
    PointStatus,
    SweepCheckpoint,
    SweepResult,
    experiment_configs,
    format_table,
    load_sweep,
    run_sweep,
    save_sweep,
    sweep_report,
    verify_checkpoint,
)
from repro.experiments.persistence import (
    decode_checkpoint_line,
    encode_checkpoint_line,
)

TINY_RUN = RunConfig(batches=3, batch_time=6.0, warmup_batches=0, seed=47)


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory):
    """A live sweep and the checkpoint file its run left."""
    path = tmp_path_factory.mktemp("live") / "exp3_finite.ckpt.jsonl"
    config = experiment_configs()["exp3_finite"]
    sweep = run_sweep(
        config, run=TINY_RUN, mpls=[5, 25], algorithms=["blocking"],
        checkpoint=str(path),
    )
    return sweep, path


@pytest.fixture(scope="module")
def sweep(checkpointed):
    return checkpointed[0]


def read_lines(path):
    """Every line of a sweep file, decoded (header first)."""
    return [
        decode_checkpoint_line(raw)
        for raw in path.read_text().splitlines(keepends=True)
    ]


def edit_header(path, **changes):
    """Rewrite a sweep file's header with ``changes``, CRC re-encoded."""
    lines = path.read_text().splitlines(keepends=True)
    header = decode_checkpoint_line(lines[0])
    header.update(changes)
    lines[0] = encode_checkpoint_line(header)
    path.write_text("".join(lines))


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


class TestOneFileFormat:
    """A saved sweep is a finished checkpoint: one format, one reader."""

    def test_load_sweep_reads_a_live_checkpoint(self, checkpointed):
        sweep, path = checkpointed
        loaded = load_sweep(path)
        for with_plots in (False, True):
            assert sweep_report(loaded, with_plots=with_plots) == (
                sweep_report(sweep, with_plots=with_plots)
            )

    def test_saved_sweep_passes_verify(self, sweep, tmp_path):
        path = tmp_path / "sweep.ckpt.jsonl"
        save_sweep(sweep, path)
        report = verify_checkpoint(str(path))
        assert report["ok"]
        assert report["valid_points"] == len(sweep.replicate_statuses)
        assert report["fingerprint"] == sweep.config.params.fingerprint()

    def test_saved_sweep_restores_identically(self, sweep, tmp_path):
        path = tmp_path / "sweep.ckpt.jsonl"
        save_sweep(sweep, path)
        restored = SweepResult(config=sweep.config, run=TINY_RUN)
        checkpoint = SweepCheckpoint(str(path), sweep.config, TINY_RUN)
        assert checkpoint.load_into(restored) == 2
        assert sweep_report(restored) == sweep_report(sweep)
        assert sweep_report(load_sweep(path)) == sweep_report(sweep)

    def test_lines_are_the_bytes_record_appends(self, sweep, tmp_path):
        saved, recorded = tmp_path / "saved", tmp_path / "recorded"
        save_sweep(sweep, saved)
        checkpoint = SweepCheckpoint(str(recorded), sweep.config, TINY_RUN)
        checkpoint.start_fresh()
        for (algorithm, mpl, rep), status in sorted(
                sweep.replicate_statuses.items()):
            checkpoint.record(
                (algorithm, mpl), sweep.replicate(algorithm, mpl, rep),
                status, rep=rep,
            )
        saved_lines = saved.read_text().splitlines(keepends=True)
        recorded_lines = recorded.read_text().splitlines(keepends=True)
        assert saved_lines[1:] == recorded_lines[1:]
        assert read_lines(saved)[0] == dict(
            read_lines(recorded)[0], wall_seconds=sweep.wall_seconds
        )


class TestErrors:
    def test_wrong_format_rejected(self, sweep, tmp_path):
        path = tmp_path / "bad.ckpt.jsonl"
        save_sweep(sweep, path)
        edit_header(path, format="something-else")
        with pytest.raises(ValueError, match="not a sweep checkpoint"):
            load_sweep(path)

    def test_overlaid_params_rejected(self, sweep, tmp_path):
        # A sweep run with a field overlaid on the preset must not load
        # back labelled with the preset's params.
        overlaid = sweep.config.params.with_changes(
            resource_model="buffered"
        )
        path = tmp_path / "sweep.ckpt.jsonl"
        save_sweep(sweep, path)
        edit_header(path, params=overlaid.canonical())
        assert verify_checkpoint(str(path))["fingerprint"] == (
            overlaid.fingerprint()
        )
        with pytest.raises(ValueError, match="resource_model"):
            load_sweep(path)

    def test_unknown_experiment_rejected(self, sweep, tmp_path):
        path = tmp_path / "sweep.ckpt.jsonl"
        save_sweep(sweep, path)
        edit_header(path, experiment_id="exp99_imaginary")
        with pytest.raises(ValueError, match="unknown experiment"):
            load_sweep(path)

    def test_unreadable_run_config_refused(self, sweep, tmp_path):
        path = tmp_path / "sweep.ckpt.jsonl"
        save_sweep(sweep, path)
        edit_header(path, run=dict(vars(TINY_RUN), knob=1))
        with pytest.raises(ValueError, match="unreadable header"):
            load_sweep(path)

    def test_corrupt_line_refused(self, sweep, tmp_path):
        path = tmp_path / "sweep.ckpt.jsonl"
        save_sweep(sweep, path)
        garble_tail(str(path), 40, seed=3)
        with pytest.raises(ValueError, match=r"line \d+ is corrupt") as info:
            load_sweep(path)
        assert str(path) in str(info.value)

    def test_torn_tail_refused(self, checkpointed, tmp_path):
        path = tmp_path / "torn.ckpt.jsonl"
        path.write_bytes(checkpointed[1].read_bytes())
        truncate_tail(str(path), 9)
        with pytest.raises(ValueError, match="line 3 is corrupt"):
            load_sweep(path)

    def test_v1_document_refused(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "format": "repro-sweep-v1", "experiment_id": "exp3_finite",
            "points": [], "statuses": [],
        }))
        with pytest.raises(ValueError, match="older checkpoint format"):
            load_sweep(path)

    def test_v3_file_refused(self, sweep, tmp_path):
        # A v3 header bound one params set, not every grid point's, and
        # its lines named points by (algorithm, mpl) only.
        path = tmp_path / "sweep.ckpt.jsonl"
        save_sweep(sweep, path)
        edit_header(path, format="repro-sweep-checkpoint-v3")
        with pytest.raises(ValueError, match="older checkpoint format"):
            load_sweep(path)
        checkpoint = SweepCheckpoint(str(path), sweep.config, TINY_RUN)
        with pytest.raises(CheckpointMismatchError,
                           match="older checkpoint format"):
            checkpoint.load_into(
                SweepResult(config=sweep.config, run=TINY_RUN)
            )
        assert "older checkpoint format" in (
            verify_checkpoint(str(path))["detail"]
        )

    def test_empty_file_refused(self, tmp_path):
        path = tmp_path / "empty.ckpt.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_sweep(path)


class TestOneReplicationLayout:
    """An R=1 sweep file has one layout, however its sweep was filled."""

    def test_layout_is_pinned(self, sweep, tmp_path):
        layout = SweepResult(config=sweep.config, run=TINY_RUN)
        # Recorded out of grid order; the file sorts them.
        layout.record_replicate(
            ("blocking", 25), 0, sweep.result("blocking", 25),
            PointStatus("ok"),
        )
        layout.record_replicate(
            ("blocking", 10), 0, None,
            PointStatus("failed", error="SimulationStalledError: stuck"),
        )
        layout.record_replicate(
            ("blocking", 5), 0, sweep.result("blocking", 5),
            PointStatus("ok"),
        )
        path = tmp_path / "sweep.ckpt.jsonl"
        save_sweep(layout, path)
        header, *points = read_lines(path)
        assert list(header) == [
            "format", "experiment_id", "run", "replications", "params",
            "fingerprints", "wall_seconds",
        ]
        assert header["replications"] == 1
        assert [
            (*p["key"], p["status"]["status"])
            for p in points
        ] == [
            ("blocking", 5, "ok"),
            ("blocking", 10, "failed"),
            ("blocking", 25, "ok"),
        ]
        assert [list(p) for p in points] == [
            ["key", "status", "algorithm", "series", "totals"],
            ["key", "status"],
            ["key", "status", "algorithm", "series", "totals"],
        ]
        for point in points:
            assert list(point["status"]) == [
                "status", "attempts", "error", "wall_seconds",
            ]

    def test_reloaded_sweep_saves_the_same_bytes(self, sweep, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_sweep(sweep, first)
        save_sweep(load_sweep(first), second)
        assert second.read_text() == first.read_text()

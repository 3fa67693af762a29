"""Checkpoint headers and resume for the one sweep lane.

Headers record the replication count, which defines the trajectory
segmentation; any disagreement on resume is a
:class:`CheckpointMismatchError`. Headers of older formats (v1 had no
line CRCs, v2 bound hand-picked parameter groups and, for a while, the
sweep's execution ``backend``) cannot prove which parameters they ran
under, so they are refused with a hint to start fresh.
"""

import json

import pytest

from repro.chaos import truncate_tail
from repro.experiments import CheckpointMismatchError, run_sweep
from repro.experiments.persistence import (
    decode_checkpoint_line,
    encode_checkpoint_line,
    verify_checkpoint,
)

from tests.fastlane.grid import GRID_RUN, grid_config, sweep_fingerprints


def read_lines(path):
    with open(path) as f:
        return f.read().splitlines()


class TestHeaderBinding:
    def test_header_records_replications_not_backend(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        run_sweep(
            grid_config(), run=GRID_RUN, replications=2, checkpoint=path,
        )
        header = decode_checkpoint_line(read_lines(path)[0])
        assert header["replications"] == 2
        assert header["params"] == grid_config().params.canonical()
        assert "backend" not in header

    def test_rep_key_only_on_nonzero_replications(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        run_sweep(
            grid_config(), run=GRID_RUN, replications=3, checkpoint=path,
        )
        points = [decode_checkpoint_line(raw) for raw in read_lines(path)[1:]]
        recorded = {
            (*p["key"], p.get("rep", 0)) for p in points
        }
        config = grid_config()
        assert recorded == {
            (algorithm, mpl, rep)
            for algorithm in config.algorithms
            for mpl in config.mpls
            for rep in range(3)
        }
        # Replication 0 omits the key, keeping non-replicated
        # checkpoints byte-compatible with the historical layout.
        for point in points:
            assert point.get("rep", 0) != 0 or "rep" not in point


class TestResumeMismatch:
    def test_replication_count_mismatch_refused(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        run_sweep(
            grid_config(), run=GRID_RUN, replications=2, checkpoint=path,
        )
        with pytest.raises(CheckpointMismatchError, match="replication"):
            run_sweep(
                grid_config(), run=GRID_RUN, replications=3,
                checkpoint=path, resume=True,
            )


class TestOlderFormats:
    @pytest.mark.parametrize("crc", [False, True], ids=["v1", "v2"])
    def test_older_header_is_refused(self, tmp_path, crc):
        # v1 wrote bare JSON lines, v2 added the CRC suffixes; neither
        # header binds the whole parameter set.
        path = tmp_path / "sweep.ckpt"
        run_sweep(grid_config(), run=GRID_RUN, checkpoint=path)
        lines = read_lines(path)
        header = decode_checkpoint_line(lines[0])
        del header["params"]
        header["format"] = f"repro-sweep-checkpoint-v{1 + crc}"
        with open(path, "w") as f:
            if crc:
                f.write(encode_checkpoint_line(header))
            else:
                f.write(json.dumps(header) + "\n")
            f.write("\n".join(lines[1:]) + "\n")
        with pytest.raises(CheckpointMismatchError,
                           match="older checkpoint format"):
            run_sweep(grid_config(), run=GRID_RUN, checkpoint=path,
                      resume=True)
        report = verify_checkpoint(str(path))
        assert not report["ok"]
        assert "older checkpoint format" in report["detail"]


class TestBatchedResume:
    def test_completed_checkpoint_reloads_identically(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        fresh = run_sweep(
            grid_config(), run=GRID_RUN, replications=3, checkpoint=path,
        )
        resumed = run_sweep(
            grid_config(), run=GRID_RUN, replications=3,
            checkpoint=path, resume=True,
        )
        assert sweep_fingerprints(resumed) == sweep_fingerprints(fresh)

    def test_torn_checkpoint_resumes_byte_identically(self, tmp_path):
        # Kill-mid-write crash model: chop the checkpoint's tail, then
        # resume; the re-simulated points must reproduce the fault-free
        # sweep exactly (a partially lost point refuses nothing — the
        # fused trajectory re-runs from its own seed).
        path = tmp_path / "sweep.ckpt"
        fresh = run_sweep(
            grid_config(), run=GRID_RUN, replications=3, checkpoint=path,
        )
        truncate_tail(path, 200)
        resumed = run_sweep(
            grid_config(), run=GRID_RUN, replications=3,
            checkpoint=path, resume=True,
        )
        assert sweep_fingerprints(resumed) == sweep_fingerprints(fresh)

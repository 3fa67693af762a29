"""Checkpoint headers and resume for the one sweep lane.

Headers record the replication count, which defines the trajectory
segmentation; any disagreement on resume is a
:class:`CheckpointMismatchError`. Headers written while sweeps had two
execution lanes also carry a ``backend`` field. The lanes were
result-identical but not retry-identical (the ``classic`` lane
reseeded retried replications one by one, the ``batched`` lane the
whole point, as every sweep does now), so such a header resumes only
where the two retry rules coincide: ``batched``, or one replication.
"""

import pytest

from repro.chaos import truncate_tail
from repro.experiments import CheckpointMismatchError, run_sweep
from repro.experiments.persistence import (
    decode_checkpoint_line,
    encode_checkpoint_line,
)

from tests.fastlane.grid import GRID_RUN, grid_config, sweep_fingerprints


def read_lines(path):
    with open(path) as f:
        return f.read().splitlines()


def rewrite_header(path, changes):
    """Edit the checkpoint's header in place (None deletes a key)."""
    lines = read_lines(path)
    header = decode_checkpoint_line(lines[0])
    for key, value in changes.items():
        if value is None:
            header.pop(key, None)
        else:
            header[key] = value
    with open(path, "w") as f:
        f.write(encode_checkpoint_line(header))
        f.write("\n".join(lines[1:]) + "\n")


def resume_matches_fresh(path, replications):
    resumed = run_sweep(
        grid_config(), run=GRID_RUN, replications=replications,
        checkpoint=path, resume=True,
    )
    fresh = run_sweep(
        grid_config(), run=GRID_RUN, replications=replications
    )
    return sweep_fingerprints(resumed) == sweep_fingerprints(fresh)


class TestHeaderBinding:
    def test_header_records_replications_not_backend(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        run_sweep(
            grid_config(), run=GRID_RUN, replications=2, checkpoint=path,
        )
        header = decode_checkpoint_line(read_lines(path)[0])
        assert header["replications"] == 2
        assert "backend" not in header

    def test_rep_key_only_on_nonzero_replications(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        run_sweep(
            grid_config(), run=GRID_RUN, replications=3, checkpoint=path,
        )
        points = [decode_checkpoint_line(raw) for raw in read_lines(path)[1:]]
        recorded = {
            (p["algorithm"], p["mpl"], p.get("rep", 0)) for p in points
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

    def test_legacy_header_defaults_to_classic(self, tmp_path):
        # Headers written before replications existed carry neither
        # key: they were single-replication sweeps and resume as such.
        path = tmp_path / "sweep.ckpt"
        run_sweep(grid_config(), run=GRID_RUN, checkpoint=path)
        rewrite_header(path, {"backend": None, "replications": None})
        assert resume_matches_fresh(path, 1)


class TestLegacyBackendField:
    def test_batched_header_resumes(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        run_sweep(
            grid_config(), run=GRID_RUN, replications=2, checkpoint=path,
        )
        rewrite_header(path, {"backend": "batched"})
        assert resume_matches_fresh(path, 2)

    def test_single_replication_classic_header_resumes(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        run_sweep(grid_config(), run=GRID_RUN, checkpoint=path)
        rewrite_header(path, {"backend": "classic"})
        assert resume_matches_fresh(path, 1)

    def test_replicated_classic_header_refused(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        run_sweep(
            grid_config(), run=GRID_RUN, replications=2, checkpoint=path,
        )
        rewrite_header(path, {"backend": "classic"})
        with pytest.raises(CheckpointMismatchError, match="'backend'"):
            run_sweep(
                grid_config(), run=GRID_RUN, replications=2,
                checkpoint=path, resume=True,
            )


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

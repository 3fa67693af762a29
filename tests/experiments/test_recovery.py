"""Crash-safety and chaos recovery tests for sweep persistence/supervision.

The headline guarantee under test: a sweep that is SIGKILLed, loses a
worker pool, or has its checkpoint file torn or garbled mid-run, and is
then resumed, produces results **byte-identical** to the fault-free
run. The matrix covers every corruption the persistence layer claims to
survive (torn trailing line, corrupted header, CRC-mismatched record),
plus the supervision layer's backoff and pool-crash degradation.
"""

import json
import multiprocessing
import os
import signal

import pytest

from repro.chaos import ChaosSpec, FlakyFsync, garble_tail, truncate_tail
from repro.core import RunConfig, SimulationParameters
from repro.experiments import (
    STATUS_OK,
    CheckpointCorruptError,
    CheckpointMismatchError,
    ExperimentConfig,
    SweepCheckpoint,
    SweepResult,
    retry_backoff,
    run_sweep,
    save_sweep,
    verify_checkpoint,
)
from repro.experiments import runner as runner_module
from repro.experiments.cli import main as cli_main
from repro.experiments.errors import (
    PointDeadlineExceeded,
    SimulationStalledError,
    error_severity,
)
from repro.experiments.persistence import (
    CRC_SEPARATOR,
    decode_checkpoint_line,
    encode_checkpoint_line,
)
from repro.fastlane import TapeStore
from repro.obs import InvariantViolation, InvariantViolationError

TINY_RUN = RunConfig(batches=2, batch_time=5.0, warmup_batches=0, seed=11)

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="kill/resume tests rely on fork semantics",
)


def tiny_params():
    return SimulationParameters(
        db_size=200, min_size=4, max_size=8, write_prob=0.25,
        num_terms=10, mpl=5, ext_think_time=0.5,
        obj_io=0.010, obj_cpu=0.005, num_cpus=1, num_disks=2,
    )


def tiny_config(**overrides):
    defaults = dict(
        experiment_id="tiny",
        title="Tiny test sweep",
        params=tiny_params(),
        algorithms=("blocking", "optimistic"),
        mpls=(2, 5),
        metrics=("throughput",),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def checkpoint_points(path):
    """{key: payload} with measured wall-clock stripped."""
    points = {}
    with open(path) as f:
        lines = f.read().splitlines()
    for raw in lines[1:]:
        line = decode_checkpoint_line(raw)
        line["status"] = {
            k: v for k, v in line["status"].items()
            if k != "wall_seconds"
        }
        points[tuple(line["key"])] = line
    return points


def golden_checkpoint(tmp_path, **sweep_kwargs):
    """The fault-free reference checkpoint every parity test compares to."""
    path = str(tmp_path / "golden.ckpt.jsonl")
    run_sweep(tiny_config(), run=TINY_RUN, checkpoint=path,
              **sweep_kwargs)
    return path


class TestCorruptionMatrix:
    def _checkpoint(self, tmp_path):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        run_sweep(tiny_config(), run=TINY_RUN, checkpoint=path)
        return path

    def _load(self, path):
        config = tiny_config()
        checkpoint = SweepCheckpoint(path, config, TINY_RUN)
        sweep = SweepResult(config=config, run=TINY_RUN)
        restored = checkpoint.load_into(sweep)
        return restored, checkpoint, sweep

    def test_truncated_trailing_line_salvaged_and_repaired(
            self, tmp_path):
        path = self._checkpoint(tmp_path)
        golden = checkpoint_points(path)
        truncate_tail(path, 9)
        restored, checkpoint, _ = self._load(path)
        assert restored == 3  # 4 points written, the torn one dropped
        assert checkpoint.salvage_dropped == 1
        # The repair truncated the torn tail: the file now ends on a
        # clean line boundary and every remaining line is intact.
        assert verify_checkpoint(path)["ok"]
        # Resuming re-runs only the dropped point and restores parity.
        resumed = run_sweep(tiny_config(), run=TINY_RUN,
                            checkpoint=path, resume=True)
        assert checkpoint_points(path) == golden
        assert all(s.status == STATUS_OK
                   for s in resumed.statuses.values())

    def test_garbled_tail_detected_by_crc(self, tmp_path):
        path = self._checkpoint(tmp_path)
        golden = checkpoint_points(path)
        garble_tail(path, 40, seed=3)
        report = verify_checkpoint(path)
        assert not report["ok"]
        assert report["first_corrupt_line"] is not None
        restored, checkpoint, _ = self._load(path)
        assert restored == 3
        # Garbled bytes may themselves decode as line breaks, so the
        # torn tail can split into several dropped fragments.
        assert checkpoint.salvage_dropped >= 1
        run_sweep(tiny_config(), run=TINY_RUN, checkpoint=path,
                  resume=True)
        assert checkpoint_points(path) == golden

    def test_crc_catches_silently_valid_json(self, tmp_path):
        # Flip one digit inside a mid-file record's JSON payload: the
        # line still parses as JSON (pre-CRC loaders would swallow the
        # wrong number), but the CRC no longer matches.
        path = self._checkpoint(tmp_path)
        with open(path) as f:
            lines = f.read().splitlines(keepends=True)
        target = lines[2]
        text, _, suffix = target.rpartition(CRC_SEPARATOR)
        digits = [i for i, ch in enumerate(text) if ch.isdigit()]
        flip = digits[len(digits) // 2]
        flipped = (
            text[:flip] + str((int(text[flip]) + 1) % 10)
            + text[flip + 1:]
        )
        json.loads(flipped)  # still valid JSON: only the CRC knows
        lines[2] = flipped + CRC_SEPARATOR + suffix
        with open(path, "w") as f:
            f.writelines(lines)
        with pytest.raises(ValueError, match="CRC32 mismatch"):
            decode_checkpoint_line(lines[2])
        restored, checkpoint, _ = self._load(path)
        # Salvage keeps the valid prefix (header + first point) only.
        assert restored == 1
        assert checkpoint.salvage_dropped == 3

    def test_corrupted_header_is_unrecoverable(self, tmp_path):
        path = self._checkpoint(tmp_path)
        with open(path) as f:
            lines = f.read().splitlines(keepends=True)
        lines[0] = lines[0][: len(lines[0]) // 2].rstrip() + "\n"
        with open(path, "w") as f:
            f.writelines(lines)
        report = verify_checkpoint(path)
        assert not report["ok"]
        assert report["first_corrupt_line"] == 1
        with pytest.raises(CheckpointCorruptError) as excinfo:
            run_sweep(tiny_config(), run=TINY_RUN, checkpoint=path,
                      resume=True)
        # Corrupt headers stay catchable as the mismatch family the
        # CLI already handles.
        assert isinstance(excinfo.value, CheckpointMismatchError)

    def test_empty_checkpoint_restores_nothing(self, tmp_path):
        path = str(tmp_path / "empty.ckpt.jsonl")
        open(path, "w").close()
        restored, checkpoint, sweep = self._load(path)
        assert restored == 0
        assert sweep.statuses == {}


class TestAtomicWrites:
    def test_failed_fsync_preserves_previous_save(self, tmp_path):
        sweep = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2])
        path = tmp_path / "sweep.json"
        save_sweep(sweep, str(path))
        good = path.read_text()
        with FlakyFsync() as flaky:
            with pytest.raises(OSError):
                save_sweep(sweep, str(path))
        assert flaky.calls == 1
        assert path.read_text() == good  # previous file untouched
        assert list(tmp_path.glob("*.tmp.*")) == []  # tmp cleaned up

    def test_failed_fsync_preserves_previous_checkpoint_header(
            self, tmp_path):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        run_sweep(tiny_config(), run=TINY_RUN, mpls=[2],
                  checkpoint=path)
        with open(path) as f:
            good = f.read()
        with FlakyFsync():
            with pytest.raises(OSError):
                # start_fresh would atomically replace the file with a
                # bare header; with fsync failing it must not.
                SweepCheckpoint(
                    path, tiny_config(), TINY_RUN
                ).start_fresh()
        with open(path) as f:
            assert f.read() == good

    def test_save_sweep_is_loadable_after_interrupted_rewrite(
            self, tmp_path):
        # The file save_sweep writes is one atomic sweep file.
        sweep = run_sweep(
            tiny_config(experiment_id="exp3_finite"),
            run=TINY_RUN, mpls=[2],
        )
        path = tmp_path / "sweep.ckpt.jsonl"
        save_sweep(sweep, str(path))
        assert verify_checkpoint(str(path))["ok"]  # no tmp suffix junk


class TestVerifyCheckpointCli:
    def test_clean_checkpoint_exits_zero(self, tmp_path, capsys):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        run_sweep(tiny_config(), run=TINY_RUN, mpls=[2],
                  checkpoint=path)
        assert cli_main(["--verify-checkpoint", path]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "valid points:  2" in out
        assert "replications:  1" in out
        assert f"params:        sha256 {tiny_params().fingerprint()}" in out

    @pytest.mark.parametrize("crc", [False, True], ids=["v1", "v2"])
    def test_older_format_is_not_resumable(self, tmp_path, capsys, crc):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        run_sweep(tiny_config(), run=TINY_RUN, mpls=[2],
                  checkpoint=path)
        with open(path) as f:
            lines = f.read().splitlines(keepends=True)
        header = decode_checkpoint_line(lines[0])
        header["format"] = f"repro-sweep-checkpoint-v{1 + crc}"
        lines[0] = (
            encode_checkpoint_line(header) if crc
            else json.dumps(header) + "\n"
        )
        with open(path, "w") as f:
            f.writelines(lines)
        assert cli_main(["--verify-checkpoint", path]) == 1
        out = capsys.readouterr().out
        assert (
            "older checkpoint format; cannot be resumed, start fresh"
            in out
        )
        assert "not a sweep checkpoint" not in out

    def test_corrupt_checkpoint_exits_one(self, tmp_path, capsys):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        run_sweep(tiny_config(), run=TINY_RUN, mpls=[2],
                  checkpoint=path)
        garble_tail(path, 25, seed=1)
        assert cli_main(["--verify-checkpoint", path]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert "salvage" in out

    def test_verify_is_read_only(self, tmp_path):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        run_sweep(tiny_config(), run=TINY_RUN, mpls=[2],
                  checkpoint=path)
        truncate_tail(path, 5)
        with open(path, "rb") as f:
            before = f.read()
        cli_main(["--verify-checkpoint", path])
        with open(path, "rb") as f:
            assert f.read() == before  # no repair without --resume


class TestWorkloadModelBinding:
    """The checkpoint header binds the workload model: a sweep never
    resumes under a different arrival process."""

    def _open_config(self, spec=None):
        return tiny_config(
            params=tiny_params().with_changes(
                workload_model="open_poisson",
                workload_spec=spec if spec is not None else {"rate": 4.0},
            )
        )

    def test_mismatched_workload_model_rejected(self, tmp_path):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        run_sweep(tiny_config(), run=TINY_RUN, mpls=[2], checkpoint=path)
        with pytest.raises(CheckpointMismatchError, match="workload"):
            run_sweep(self._open_config(), run=TINY_RUN, mpls=[2],
                      checkpoint=path, resume=True)

    def test_mismatched_workload_spec_rejected(self, tmp_path):
        # Same model, different spec: still a different arrival
        # process, still refused.
        path = str(tmp_path / "tiny.ckpt.jsonl")
        run_sweep(self._open_config({"rate": 4.0}), run=TINY_RUN,
                  mpls=[2], checkpoint=path)
        with pytest.raises(CheckpointMismatchError, match="workload"):
            run_sweep(self._open_config({"rate": 8.0}), run=TINY_RUN,
                      mpls=[2], checkpoint=path, resume=True)

    def test_workload_model_round_trips_through_checkpoint(
            self, tmp_path):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        config = self._open_config()
        run_sweep(config, run=TINY_RUN, mpls=[2], checkpoint=path)
        with open(path) as f:
            header = decode_checkpoint_line(f.readline())
        assert header["params"]["workload_model"] == "open_poisson"
        assert header["params"]["workload_spec"] == [["rate", 4.0]]
        resumed = run_sweep(config, run=TINY_RUN, mpls=[2],
                            checkpoint=path, resume=True)
        assert resumed.status("blocking", 2).status == STATUS_OK


class TestRetryBackoff:
    def test_deterministic_pure_function(self):
        assert retry_backoff(11, ("blocking", 2), 1) == retry_backoff(
            11, ("blocking", 2), 1
        )
        assert retry_backoff(11, ("blocking", 2), 1) != retry_backoff(
            11, ("optimistic", 2), 1
        )

    def test_first_attempt_never_waits(self):
        assert retry_backoff(11, ("blocking", 2), 0) == 0.0

    def test_jittered_exponential_growth_with_cap(self):
        base = runner_module.BACKOFF_BASE
        for attempt in range(1, 8):
            delay = retry_backoff(11, ("blocking", 2), attempt)
            nominal = base * (2 ** (attempt - 1))
            assert 0.5 * nominal <= delay
            assert delay < min(runner_module.BACKOFF_CAP,
                               1.5 * nominal) + 1e-9
        assert retry_backoff(11, ("blocking", 2), 60) <= (
            runner_module.BACKOFF_CAP
        )

    def test_retry_sleeps_through_the_injectable_seam(
            self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(runner_module, "_sleep", sleeps.append)
        fastlane = runner_module.fastlane
        original = fastlane.run_point_replications
        failures = [0]

        def flaky(params, algorithm, run, replications, **kwargs):
            if failures[0] == 0:
                failures[0] += 1
                raise SimulationStalledError(1.0, 1.0, 0)
            return original(params, algorithm, run, replications,
                            **kwargs)

        monkeypatch.setattr(fastlane, "run_point_replications", flaky)
        sweep = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2],
                          algorithms=["blocking"], retries=2,
                          stall_timeout=60.0)
        assert sweep.status("blocking", 2).attempts == 2
        assert sleeps == [retry_backoff(TINY_RUN.seed, ("blocking", 2), 1)]


class TestSeverityTaxonomy:
    def test_supervised_failures_are_transient(self):
        assert error_severity(
            SimulationStalledError(1.0, 1.0, 0)
        ) == "transient"
        assert error_severity(
            PointDeadlineExceeded(2.0, 1.0)
        ) == "transient"

    def test_checkpoint_problems_are_permanent(self):
        assert error_severity(CheckpointMismatchError()) == "permanent"
        assert error_severity(CheckpointCorruptError()) == "permanent"

    def test_invariant_violations_are_fatal(self):
        violation = InvariantViolation(0.0, "conservation", "boom")
        assert error_severity(
            InvariantViolationError(violation)
        ) == "fatal"
        assert error_severity(AssertionError()) == "fatal"

    def test_unknown_errors_are_not_retry_licenses(self):
        assert error_severity(RuntimeError("?")) == "permanent"


class TestPoolCrashSupervision:
    def test_degrades_to_sequential_after_consecutive_crashes(
            self, monkeypatch):
        attempts = []

        def always_broken(sweep, pending, *args, **kwargs):
            attempts.append(list(pending))
            return list(pending)  # pool broke, nothing recorded

        monkeypatch.setattr(
            runner_module, "_run_parallel", always_broken
        )
        lines = []
        sweep = run_sweep(tiny_config(), run=TINY_RUN, workers=2,
                          progress=lines.append)
        assert len(attempts) == runner_module.MAX_POOL_RESTARTS
        assert any("degrading" in line for line in lines)
        # The sequential fallback finished every point in-process.
        assert all(s.status == STATUS_OK
                   for s in sweep.statuses.values())
        assert len(sweep.results) == 4

    def test_progress_resets_the_crash_streak(self, monkeypatch):
        calls = []

        def progressing(sweep, points, plan, *args, **kwargs):
            calls.append(list(points))
            # Record one point per drain, "crash" on the rest.
            outcomes = runner_module._run_point(
                plan, points[0], TapeStore()
            )
            runner_module._finish_point(
                sweep, plan.config, points[0], outcomes, None, None
            )
            return list(points[1:])

        monkeypatch.setattr(
            runner_module, "_run_parallel", progressing
        )
        lines = []
        sweep = run_sweep(tiny_config(), run=TINY_RUN, workers=2,
                          progress=lines.append)
        # Four points, one per drain: the pool "crashed" after each,
        # but constant progress means it never degrades.
        assert len(calls) == 4
        assert not any("degrading" in line for line in lines)
        assert any("restarting" in line for line in lines)
        assert len(sweep.results) == 4


@FORK_ONLY
class TestChaosParity:
    """The headline guarantee: kill it, resume it, get the same bytes."""

    def test_sigkilled_sequential_sweep_resumes_byte_identical(
            self, tmp_path):
        golden = golden_checkpoint(tmp_path)
        path = str(tmp_path / "chaos.ckpt.jsonl")
        spec = ChaosSpec(
            state_dir=str(tmp_path / "chaos-state"),
            kill_point=("optimistic", 2),
        )
        pid = os.fork()
        if pid == 0:  # child: dies by SIGKILL inside the third point
            try:
                run_sweep(tiny_config(), run=TINY_RUN,
                          checkpoint=path, chaos=spec)
            finally:
                os._exit(86)  # only reachable if the kill misfired
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status)
        assert os.WTERMSIG(status) == signal.SIGKILL
        # The kill landed mid-sweep: some but not all points survived,
        # and every surviving line is intact (fsync-per-point).
        report = verify_checkpoint(path)
        assert report["ok"]
        assert 0 < report["valid_points"] < 4
        # Resume under the same spec: the marker file makes the fault
        # one-shot, so the re-run is clean — and byte-identical.
        resumed = run_sweep(tiny_config(), run=TINY_RUN,
                            checkpoint=path, resume=True, chaos=spec)
        assert checkpoint_points(path) == checkpoint_points(golden)
        assert all(s.status == STATUS_OK
                   for s in resumed.statuses.values())

    def test_worker_killed_parallel_sweep_recovers_in_process(
            self, tmp_path):
        golden = golden_checkpoint(tmp_path)
        path = str(tmp_path / "chaos-par.ckpt.jsonl")
        spec = ChaosSpec(
            state_dir=str(tmp_path / "chaos-state"),
            kill_point=("optimistic", 2),
        )
        lines = []
        sweep = run_sweep(tiny_config(), run=TINY_RUN, workers=2,
                          checkpoint=path, chaos=spec,
                          progress=lines.append)
        # The SIGKILLed worker broke the pool; the supervisor
        # restarted it and re-ran only the unrecorded points.
        assert any("restarting" in line for line in lines)
        assert os.path.exists(
            spec.marker_path("kill", ("optimistic", 2))
        )
        assert all(s.status == STATUS_OK
                   for s in sweep.statuses.values())
        assert len(sweep.results) == 4
        assert checkpoint_points(path) == checkpoint_points(golden)

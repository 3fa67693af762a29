"""Tests for resilient sweep execution: watchdog, retry, checkpoint/resume.

Acceptance bar: a sweep with an injected stall completes with that
point marked ``failed`` after deadline+retries and all other points
``ok``; a killed-then-resumed sweep re-runs only the missing points.
"""

import os

import pytest

from repro.cc import ConcurrencyControl, register_algorithm
from repro.core import RunConfig, SimulationParameters
from repro.experiments import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RETRIED,
    CheckpointMismatchError,
    ExperimentConfig,
    PointDeadlineExceeded,
    SimulationStalledError,
    SweepCheckpoint,
    experiment_configs,
    load_sweep,
    run_sweep,
    save_sweep,
    sweep_report,
)
from repro.experiments import runner as runner_module
from repro.experiments.persistence import decode_checkpoint_line
from repro.experiments.runner import _PointWatchdog

TINY_RUN = RunConfig(batches=2, batch_time=5.0, warmup_batches=0, seed=11)


class StallForeverCC(ConcurrencyControl):
    """Test stub: blocks every transaction forever (guaranteed stall)."""

    name = "test_stall_forever"

    def read_request(self, tx, obj):
        return self.env.event()  # never fires


register_algorithm(StallForeverCC)


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
        algorithms=("blocking",),
        mpls=(2, 5),
        metrics=("throughput",),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestWatchdogUnit:
    class _FakeModel:
        def __init__(self):
            self.commits = 0
            self.now = 0.0

        @property
        def metrics(self):
            outer = self

            class _M:
                class commits:
                    pass
            _M.commits.total = outer.commits
            return _M

        @property
        def env(self):
            outer = self

            class _E:
                now = outer.now
            return _E

    def test_stall_trips_after_quiet_simulated_window(self):
        watchdog = _PointWatchdog(stall_timeout=10.0)
        model = self._FakeModel()
        model.now = 5.0
        watchdog(model)  # quiet for 5 sim-seconds: fine
        model.now = 10.0
        with pytest.raises(SimulationStalledError):
            watchdog(model)

    def test_commits_reset_the_stall_clock(self):
        watchdog = _PointWatchdog(stall_timeout=10.0)
        model = self._FakeModel()
        model.now, model.commits = 8.0, 3
        watchdog(model)  # progress observed at t=8
        model.now = 17.0
        watchdog(model)  # only 9 quiet sim-seconds: fine
        model.now = 18.0
        with pytest.raises(SimulationStalledError):
            watchdog(model)

    def test_deadline_uses_wall_clock(self):
        ticks = iter([0.0, 1.0, 3.5])
        watchdog = _PointWatchdog(deadline=3.0, clock=lambda: next(ticks))
        model = self._FakeModel()
        watchdog(model)  # 1.0s elapsed: fine
        with pytest.raises(PointDeadlineExceeded):
            watchdog(model)  # 3.5s elapsed


class TestStalledSweep:
    def test_stalled_point_fails_others_ok(self):
        config = tiny_config(
            algorithms=("blocking", "test_stall_forever")
        )
        sweep = run_sweep(config, run=TINY_RUN, stall_timeout=4.0,
                          retries=1)
        for mpl in (2, 5):
            assert sweep.status("blocking", mpl).status == STATUS_OK
            failed = sweep.status("test_stall_forever", mpl)
            assert failed.status == STATUS_FAILED
            assert failed.attempts == 2  # deadline + retries exhausted
            assert "SimulationStalledError" in failed.error
        assert sweep.failed_points() == [
            ("test_stall_forever", 2), ("test_stall_forever", 5),
        ]
        assert not sweep.complete
        # Failed points carry no results; series just skips them.
        assert sweep.series("throughput", "test_stall_forever") == []
        assert len(sweep.results) == 2

    def test_wall_deadline_fails_point(self):
        sweep = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2],
                          deadline=1e-6)
        status = sweep.status("blocking", 2)
        assert status.status == STATUS_FAILED
        assert "PointDeadlineExceeded" in status.error

    def test_failed_points_appear_in_report(self):
        config = tiny_config(
            algorithms=("blocking", "test_stall_forever")
        )
        sweep = run_sweep(config, run=TINY_RUN, mpls=[2],
                          stall_timeout=4.0)
        report = sweep_report(sweep, with_plots=False)
        assert "FAILED POINTS" in report
        assert "test_stall_forever mpl=2" in report

    def test_engine_livelock_degrades_to_failed_point(self):
        # immediate_restart with all delays stripped livelocks by
        # design; the engine raises RestartLivelockError, which the
        # resilient runner records instead of propagating.
        config = tiny_config(
            params=tiny_params().with_changes(
                restart_delay_mode="none_all", db_size=10,
                write_prob=1.0, mpl=8,
            ),
            algorithms=("immediate_restart",),
        )
        sweep = run_sweep(config, run=TINY_RUN.with_changes(seed=13),
                          mpls=[8], stall_timeout=100.0)
        status = sweep.status("immediate_restart", 8)
        assert status.status == STATUS_FAILED
        assert "RestartLivelockError" in status.error

    def test_retry_reseeds_and_can_report_success(self):
        # A deadline generous enough for the second attempt cannot be
        # constructed deterministically, so exercise the reseed path
        # by failing once via a one-shot flaky watchdog seam: retries
        # reseed the run, so the seed differs between attempts.
        seeds = []
        fastlane = runner_module.fastlane
        original = fastlane.run_point_replications

        def spying(params, algorithm, run, replications, **kwargs):
            seeds.append(run.seed)
            if len(seeds) == 1:
                raise SimulationStalledError(1.0, 1.0, 0)
            return original(params, algorithm, run, replications, **kwargs)

        fastlane.run_point_replications = spying
        try:
            sweep = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2],
                              retries=2, stall_timeout=60.0)
        finally:
            fastlane.run_point_replications = original
        status = sweep.status("blocking", 2)
        assert status.status == STATUS_RETRIED
        assert status.attempts == 2
        assert status.error is not None  # the first failure is kept
        assert len(seeds) == 2 and seeds[0] != seeds[1]
        assert ("blocking", 2) in sweep.results


class TestValidation:
    def test_unknown_algorithm_fails_before_simulating(self):
        with pytest.raises(ValueError) as excinfo:
            run_sweep(tiny_config(), run=TINY_RUN,
                      algorithms=["blocking", "nonesuch"])
        message = str(excinfo.value)
        assert "nonesuch" in message
        assert "blocking" in message  # valid names listed

    def test_bad_resilience_arguments(self):
        with pytest.raises(ValueError):
            run_sweep(tiny_config(), run=TINY_RUN, retries=-1)
        with pytest.raises(ValueError):
            run_sweep(tiny_config(), run=TINY_RUN, deadline=0.0)
        with pytest.raises(ValueError):
            run_sweep(tiny_config(), run=TINY_RUN, stall_timeout=-5.0)


class TestCheckpointResume:
    def test_resume_runs_only_missing_points(self, tmp_path):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        first = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2],
                          checkpoint=path)
        assert first.status("blocking", 2).status == STATUS_OK

        calls = []
        fastlane = runner_module.fastlane
        original = fastlane.run_point_replications

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        fastlane.run_point_replications = counting
        try:
            resumed = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2, 5],
                                checkpoint=path, resume=True)
        finally:
            fastlane.run_point_replications = original
        assert len(calls) == 1  # only the missing mpl=5 point ran
        assert set(resumed.results) == {("blocking", 2), ("blocking", 5)}
        assert resumed.status("blocking", 2).status == STATUS_OK
        # The restored point answers metric queries like a live one.
        restored = resumed.result("blocking", 2)
        live = first.result("blocking", 2)
        assert restored.mean("throughput") == pytest.approx(
            live.mean("throughput")
        )

    def test_resumed_failed_points_are_not_rerun(self, tmp_path):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        config = tiny_config(algorithms=("test_stall_forever",))
        first = run_sweep(config, run=TINY_RUN, mpls=[2],
                          stall_timeout=4.0, checkpoint=path)
        assert first.status("test_stall_forever", 2).status == STATUS_FAILED

        calls = []
        fastlane = runner_module.fastlane
        original = fastlane.run_point_replications

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        fastlane.run_point_replications = counting
        try:
            resumed = run_sweep(config, run=TINY_RUN, mpls=[2],
                                stall_timeout=4.0, checkpoint=path,
                                resume=True)
        finally:
            fastlane.run_point_replications = original
        assert calls == []  # the recorded failure is kept, not re-run
        assert resumed.status(
            "test_stall_forever", 2
        ).status == STATUS_FAILED

    def test_without_resume_checkpoint_is_truncated(self, tmp_path):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        run_sweep(tiny_config(), run=TINY_RUN, mpls=[2], checkpoint=path)
        run_sweep(tiny_config(), run=TINY_RUN, mpls=[5], checkpoint=path)
        with open(path) as f:
            lines = f.read().splitlines()
        points = [decode_checkpoint_line(line) for line in lines[1:]]
        assert [p["mpl"] for p in points] == [5]

    def test_mismatched_run_config_rejected(self, tmp_path):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        run_sweep(tiny_config(), run=TINY_RUN, mpls=[2], checkpoint=path)
        other = TINY_RUN.with_changes(seed=999)
        with pytest.raises(CheckpointMismatchError):
            run_sweep(tiny_config(), run=other, mpls=[2, 5],
                      checkpoint=path, resume=True)

    def test_mismatched_experiment_rejected(self, tmp_path):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        run_sweep(tiny_config(), run=TINY_RUN, mpls=[2], checkpoint=path)
        other = tiny_config(experiment_id="other")
        with pytest.raises(CheckpointMismatchError):
            run_sweep(other, run=TINY_RUN, mpls=[2], checkpoint=path,
                      resume=True)

    def test_mismatched_resource_model_rejected(self, tmp_path):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        run_sweep(tiny_config(), run=TINY_RUN, mpls=[2], checkpoint=path)
        buffered = tiny_config(
            params=tiny_params().with_changes(resource_model="buffered")
        )
        with pytest.raises(CheckpointMismatchError, match="resource"):
            run_sweep(buffered, run=TINY_RUN, mpls=[2], checkpoint=path,
                      resume=True)

    def test_resource_model_round_trips_through_checkpoint(self, tmp_path):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        buffered = tiny_config(
            params=tiny_params().with_changes(resource_model="buffered")
        )
        run_sweep(buffered, run=TINY_RUN, mpls=[2], checkpoint=path)
        with open(path) as f:
            header = decode_checkpoint_line(f.readline())
        assert header["params"]["resource_model"] == "buffered"
        # Same model resumes cleanly and keeps the recorded point.
        resumed = run_sweep(buffered, run=TINY_RUN, mpls=[2],
                            checkpoint=path, resume=True)
        assert resumed.status("blocking", 2).status == STATUS_OK

    def test_truncated_trailing_line_tolerated(self, tmp_path):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        run_sweep(tiny_config(), run=TINY_RUN, mpls=[2, 5],
                  checkpoint=path)
        # Simulate a kill mid-write: chop the last line in half.
        with open(path) as f:
            content = f.read()
        with open(path, "w") as f:
            f.write(content[: len(content) - len(content.splitlines()[-1])
                            // 2 - 1])
        config = tiny_config()
        checkpoint = SweepCheckpoint(path, config, TINY_RUN)
        from repro.experiments.runner import SweepResult

        sweep = SweepResult(config=config, run=TINY_RUN)
        restored = checkpoint.load_into(sweep)
        assert restored == 1  # the intact first point only
        assert ("blocking", 2) in sweep.results

    def test_resume_without_existing_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "fresh.ckpt.jsonl")
        sweep = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2],
                          checkpoint=path, resume=True)
        assert os.path.exists(path)
        assert sweep.status("blocking", 2).status == STATUS_OK

    def test_resume_on_empty_file_starts_fresh(self, tmp_path):
        # An empty file has no header to resume from. Resuming on it
        # must write one, or its points land header-less and every
        # later resume refuses the file.
        path = str(tmp_path / "empty.ckpt.jsonl")
        open(path, "w").close()
        first = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2],
                          checkpoint=path, resume=True)
        for _ in range(2):
            messages = []
            resumed = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2],
                                checkpoint=path, resume=True,
                                progress=messages.append)
            assert any("resumed 1 point(s)" in m for m in messages)
            assert resumed.result("blocking", 2).totals == (
                first.result("blocking", 2).totals
            )


class TestPersistedStatuses:
    def test_save_load_roundtrip_preserves_statuses(self, tmp_path):
        # load_sweep resolves the config from the registry by id and
        # refuses params that differ from the preset's.
        config = tiny_config(
            experiment_id="exp3_finite",
            params=experiment_configs()["exp3_finite"].params,
            algorithms=("blocking", "test_stall_forever"),
        )
        sweep = run_sweep(config, run=TINY_RUN, mpls=[2],
                          stall_timeout=4.0)
        path = str(tmp_path / "sweep.json")
        save_sweep(sweep, path)
        loaded = load_sweep(path)
        assert loaded.status("blocking", 2).status == STATUS_OK
        failed = loaded.status("test_stall_forever", 2)
        assert failed.status == STATUS_FAILED
        assert failed.attempts == 1
        assert loaded.failed_points() == [("test_stall_forever", 2)]

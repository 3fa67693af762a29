"""Tests for the process-parallel sweep executor.

Acceptance bar: for identical seeds, ``workers=1`` and ``workers=4``
produce identical per-point means and semantically identical resumable
checkpoints; a killed parallel sweep resumes only its missing points;
a wedged worker is cancelled by the parent backstop instead of hanging
the sweep.
"""

import multiprocessing
import time

import pytest

from repro.cc import ConcurrencyControl, register_algorithm
from repro.core import RunConfig, SimulationParameters
from repro.experiments import (
    STATUS_FAILED,
    STATUS_OK,
    ExperimentConfig,
    SweepCheckpoint,
    SweepResult,
    point_seed,
    run_sweep,
)
from repro.experiments import runner as runner_module
from repro.experiments.configs import FixedGrid, GridPoint
from repro.experiments.errors import SimulationStalledError
from repro.experiments.persistence import decode_checkpoint_line

TINY_RUN = RunConfig(batches=2, batch_time=5.0, warmup_batches=0, seed=11)

#: Worker processes inherit test-registered algorithms only under the
#: fork start method (Linux); skip fork-dependent cases elsewhere.
FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="test algorithm registration reaches workers only via fork",
)


class HangForeverCC(ConcurrencyControl):
    """Test stub: wedges its worker inside a batch (blocks the loop)."""

    name = "test_hang_forever"

    def read_request(self, tx, obj):
        time.sleep(300.0)  # never returns within any test budget
        return None


register_algorithm(HangForeverCC)


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
    """{key: line} of a checkpoint, wall-clock stripped.

    Wall seconds are measured time and differ between any two runs, so
    equivalence is judged on everything else: the measured batch
    series, totals, and the status outcome.
    """
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


class TestPointSeed:
    def test_first_attempt_shares_the_sweep_seed(self):
        # Common random numbers: every point's first attempt uses the
        # sweep seed, exactly like the sequential runner always did.
        assert point_seed(11, ("blocking", 2), 0) == 11
        assert point_seed(11, ("optimistic", 200), 0) == 11

    def test_retries_differ_per_attempt_and_per_point(self):
        a1 = point_seed(11, ("blocking", 2), 1)
        a2 = point_seed(11, ("blocking", 2), 2)
        b1 = point_seed(11, ("optimistic", 2), 1)
        c1 = point_seed(11, ("blocking", 5), 1)
        assert len({11, a1, a2, b1, c1}) == 5

    def test_pure_function_of_its_arguments(self):
        assert point_seed(11, ("blocking", 5), 1) == point_seed(
            11, ("blocking", 5), 1
        )

    def test_no_cross_point_collisions(self):
        # Regression: the old offset was crc32(key) % 7919, so grid
        # keys congruent modulo the stride shared every retry seed and
        # replayed identical trajectories. A full grid of realistic
        # size must produce all-distinct attempt seeds.
        algorithms = [
            "blocking", "immediate_restart", "optimistic",
            "wound_wait", "wait_die",
        ]
        mpls = list(range(1, 301))
        seeds = [
            point_seed(11, (algorithm, mpl), attempt)
            for algorithm in algorithms
            for mpl in mpls
            for attempt in (1, 2, 3)
        ]
        assert len(set(seeds)) == len(seeds)

    def test_attempt_zero_never_collides_with_retries(self):
        # The sweep seed is reserved for attempt 0 of every point; a
        # retry landing on it would silently reinstate the failing
        # trajectory it was meant to escape.
        for algorithm in ("blocking", "optimistic"):
            for mpl in (2, 25, 200):
                for attempt in (1, 2, 3):
                    assert point_seed(11, (algorithm, mpl), attempt) != 11


class TestParallelSequentialEquivalence:
    def test_identical_means_for_identical_seeds(self):
        sequential = run_sweep(tiny_config(), run=TINY_RUN, workers=1)
        parallel = run_sweep(tiny_config(), run=TINY_RUN, workers=4)
        assert set(parallel.results) == set(sequential.results)
        for key in sequential.results:
            seq_result = sequential.results[key]
            par_result = parallel.results[key]
            # Bit-identical, not approximately equal: the same seeds
            # drive the same deterministic simulation either way.
            assert par_result.mean("throughput") == seq_result.mean(
                "throughput"
            )
            assert par_result.mean("response_time") == seq_result.mean(
                "response_time"
            )
            assert parallel.status(*key).status == STATUS_OK

    def test_identical_resumable_checkpoints(self, tmp_path):
        seq_path = str(tmp_path / "seq.ckpt.jsonl")
        par_path = str(tmp_path / "par.ckpt.jsonl")
        run_sweep(tiny_config(), run=TINY_RUN, workers=1,
                  checkpoint=seq_path)
        run_sweep(tiny_config(), run=TINY_RUN, workers=4,
                  checkpoint=par_path)
        # Line order may differ (completion order vs grid order); the
        # keyed content may not.
        assert checkpoint_points(par_path) == checkpoint_points(seq_path)
        # And both resume into equivalent sweeps.
        config = tiny_config()
        restored = []
        for path in (seq_path, par_path):
            sweep = SweepResult(config=config, run=TINY_RUN)
            SweepCheckpoint(path, config, TINY_RUN).load_into(sweep)
            restored.append(sweep)
        for key in restored[0].results:
            assert restored[1].result(*key).mean(
                "throughput"
            ) == restored[0].result(*key).mean("throughput")

    def test_parallel_progress_reports_from_parent(self):
        lines = []
        run_sweep(tiny_config(), run=TINY_RUN, mpls=[2], workers=2,
                  progress=lines.append)
        # One line per point, then the sweep's wall-time line.
        assert len(lines) == 3
        assert "wall time" in lines[-1]
        # Counters come from the single parent-side reporter.
        assert sorted(line.split("]")[0] for line in lines[:-1]) == [
            "  [1/2", "  [2/2",
        ]


class TestKilledSweepResume:
    def test_parallel_resume_runs_only_missing_points(self, tmp_path):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        # A "killed" campaign: only half the grid reached the disk.
        first = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2],
                          workers=2, checkpoint=path)
        assert set(first.results) == {("blocking", 2), ("optimistic", 2)}
        with open(path) as f:
            before = f.read()

        resumed = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2, 5],
                            workers=2, checkpoint=path, resume=True)
        assert set(resumed.results) == {
            ("blocking", 2), ("blocking", 5),
            ("optimistic", 2), ("optimistic", 5),
        }
        with open(path) as f:
            after = f.read()
        # The checkpoint is append-only: recorded points were not
        # re-run or rewritten, and only the missing ones were added.
        assert after.startswith(before)
        appended = [
            decode_checkpoint_line(raw) for raw in
            after[len(before):].splitlines()
        ]
        assert sorted(
            tuple(line["key"]) for line in appended
        ) == [("blocking", 5), ("optimistic", 5)]

    def test_parallel_resume_matches_uninterrupted_results(self, tmp_path):
        path = str(tmp_path / "tiny.ckpt.jsonl")
        run_sweep(tiny_config(), run=TINY_RUN, mpls=[2], workers=2,
                  checkpoint=path)
        resumed = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2, 5],
                            workers=2, checkpoint=path, resume=True)
        uninterrupted = run_sweep(tiny_config(), run=TINY_RUN,
                                  mpls=[2, 5])
        for key in uninterrupted.results:
            assert resumed.result(*key).mean(
                "throughput"
            ) == uninterrupted.result(*key).mean("throughput")


class TestValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(tiny_config(), run=TINY_RUN, workers=-1)

    def test_workers_zero_uses_all_cores(self):
        sweep = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2],
                          algorithms=["blocking"], workers=0)
        assert sweep.status("blocking", 2).status == STATUS_OK

    def test_algorithm_instances_rejected_in_parallel_mode(self):
        from repro.cc import create_algorithm

        instance = create_algorithm("blocking")
        with pytest.raises(ValueError, match="registry"):
            run_sweep(tiny_config(algorithms=(instance,)),
                      run=TINY_RUN, workers=2)

    def test_algorithm_instances_rejected_sequentially(self):
        # One instance would serve every point and retry, carrying its
        # state (optimistic write stamps, timestamp tables) across them.
        from repro.cc import create_algorithm

        instance = create_algorithm("optimistic")
        with pytest.raises(ValueError, match="registry"):
            run_sweep(tiny_config(algorithms=(instance,)),
                      run=TINY_RUN, mpls=[2], workers=1)


class TestHardBackstop:
    def test_backstop_budget_scales_with_deadline_and_retries(self):
        assert runner_module._hard_backstop(None, 3) is None
        assert runner_module._hard_backstop(10.0, 0) == pytest.approx(
            10.0 + runner_module.BACKSTOP_GRACE
        )
        assert runner_module._hard_backstop(10.0, 2) == pytest.approx(
            30.0 + runner_module.BACKSTOP_GRACE
        )

    @FORK_ONLY
    def test_wedged_worker_is_cancelled_and_recorded_failed(
            self, monkeypatch):
        # The hung CC sleeps inside a batch, so the in-worker deadline
        # (checked at batch boundaries) can never trip; only the
        # parent-side backstop can end this point.
        monkeypatch.setattr(runner_module, "BACKSTOP_GRACE", 1.0)
        # Two wedged points so the sweep takes the parallel path (a
        # single pending point runs sequentially by design).
        config = tiny_config(algorithms=("test_hang_forever",))
        started = time.perf_counter()
        sweep = run_sweep(config, run=TINY_RUN, mpls=[2, 5], workers=2,
                          deadline=0.5)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0  # nowhere near the 300s worker sleep
        for mpl in (2, 5):
            status = sweep.status("test_hang_forever", mpl)
            assert status.status == STATUS_FAILED
            assert "PointCancelledError" in status.error
        assert not sweep.complete

    @FORK_ONLY
    def test_healthy_points_survive_a_wedged_sibling(self, monkeypatch):
        monkeypatch.setattr(runner_module, "BACKSTOP_GRACE", 2.0)
        config = tiny_config(
            algorithms=("blocking", "test_hang_forever")
        )
        # The deadline is generous for the healthy point (it finishes
        # in well under a second) but arms the backstop for the wedged
        # one.
        sweep = run_sweep(config, run=TINY_RUN, mpls=[2], workers=2,
                          deadline=2.0)
        assert sweep.status("blocking", 2).status == STATUS_OK
        assert sweep.status(
            "test_hang_forever", 2
        ).status == STATUS_FAILED


class TestSeedValidationAndReplicationKeys:
    """Attempt validation; replications have no seed axis."""

    def test_negative_attempt_rejected(self):
        from repro.experiments import retry_backoff

        with pytest.raises(ValueError, match="attempt"):
            point_seed(11, ("blocking", 2), -1)
        with pytest.raises(ValueError, match="attempt"):
            retry_backoff(11, ("blocking", 2), -1)

    def test_retry_reseeds_point(self, monkeypatch):
        # Replications have no seeds of their own: a retry reseeds the
        # point's one trajectory and re-carves every replication.
        fastlane = runner_module.fastlane
        original = fastlane.run_point_replications
        seeds = []

        def flaky(params, algorithm, run, replications, **kwargs):
            seeds.append(run.seed)
            if len(seeds) == 1:
                raise SimulationStalledError(1.0, 1.0, 0)
            return original(params, algorithm, run, replications,
                            **kwargs)

        monkeypatch.setattr(fastlane, "run_point_replications", flaky)
        monkeypatch.setattr(runner_module, "_sleep", lambda seconds: None)
        sweep = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2],
                          algorithms=["blocking"], retries=1,
                          stall_timeout=60.0, replications=3)
        retry_seed = point_seed(TINY_RUN.seed, ("blocking", 2), 1)
        assert seeds == [TINY_RUN.seed, retry_seed]
        reference = original(
            tiny_config().params_for(2), "blocking",
            TINY_RUN.with_changes(seed=retry_seed), 3,
        )
        for rep in range(3):
            status = sweep.replicate_statuses[("blocking", 2, rep)]
            assert status.attempts == 2
            assert sweep.replicate("blocking", 2, rep).totals == (
                reference[rep].totals
            )

    def test_arms_sharing_algorithm_and_mpl_keep_their_own_seeds(
            self, monkeypatch, tmp_path):
        # Two arms of one fixed grid run the same algorithm at the same
        # mpl on the same params; only their keys tell them apart.
        keys = [("first", "blocking"), ("second", "blocking")]
        grid = FixedGrid("pair", tuple(
            GridPoint(key, tiny_params(), "blocking") for key in keys
        ))
        fastlane = runner_module.fastlane
        original = fastlane.run_point_replications
        seeds = []

        def flaky(params, algorithm, run, replications, **kwargs):
            seeds.append(run.seed)
            if run.seed == TINY_RUN.seed:
                raise SimulationStalledError(1.0, 1.0, 0)
            return original(params, algorithm, run, replications,
                            **kwargs)

        monkeypatch.setattr(fastlane, "run_point_replications", flaky)
        monkeypatch.setattr(runner_module, "_sleep", lambda seconds: None)
        path = str(tmp_path / "pair.ckpt.jsonl")
        sweep = run_sweep(grid, run=TINY_RUN, retries=1,
                          stall_timeout=60.0, checkpoint=path)
        retry_seeds = [point_seed(TINY_RUN.seed, key, 1) for key in keys]
        assert retry_seeds[0] != retry_seeds[1]
        assert seeds == [
            TINY_RUN.seed, retry_seeds[0], TINY_RUN.seed, retry_seeds[1],
        ]
        assert sorted(sweep.results) == keys
        assert all(status.attempts == 2
                   for status in sweep.statuses.values())
        with open(path) as f:
            header, *lines = [
                decode_checkpoint_line(raw) for raw in f.read().splitlines()
            ]
        assert len(header["fingerprints"]) == 1
        assert [tuple(line["key"]) for line in lines] == keys
        assert lines[0]["totals"] != lines[1]["totals"]

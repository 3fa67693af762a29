"""Model-level behavioral contracts of each algorithm.

Each algorithm has observable signatures in the full model — which
conflict events it generates and for which reasons. These tests pin
them, so a refactoring that quietly changes an algorithm's character
(say, making optimistic block) cannot pass.
"""

import pytest

from repro.core import SimulationParameters, SystemModel
from tests.core.test_engine import CommitLog


def hot_params(**overrides):
    base = dict(
        db_size=40,
        min_size=2,
        max_size=6,
        write_prob=0.5,
        num_terms=15,
        mpl=12,
        ext_think_time=0.1,
        obj_io=0.010,
        obj_cpu=0.005,
        num_cpus=None,
        num_disks=None,
    )
    base.update(overrides)
    return SimulationParameters(**base)


def run_model(algorithm, seed=7, until=40.0, **overrides):
    model = SystemModel(hot_params(**overrides), algorithm, seed=seed)
    model.run_until(until)
    assert model.metrics.commits.total > 30, "config too hot to commit"
    return model


class TestRestartReasons:
    """Each algorithm restarts only for its own documented reasons."""

    @pytest.mark.parametrize(
        "algorithm,allowed",
        [
            ("blocking", {"deadlock"}),
            ("immediate_restart", {"lock_conflict"}),
            ("optimistic", {"validation_failure"}),
            ("basic_to", {"timestamp_order"}),
            ("mvto", {"timestamp_order"}),
            ("wound_wait", {"wounded"}),
            ("wait_die", {"lock_conflict"}),
        ],
    )
    def test_reasons(self, algorithm, allowed):
        model = run_model(algorithm)
        reasons = set(model.metrics.restart_reasons)
        assert reasons, f"{algorithm} should restart under this load"
        assert reasons <= allowed, (
            f"{algorithm} restarted for unexpected reasons: {reasons}"
        )

    def test_static_locking_never_restarts(self):
        model = run_model("static_locking")
        assert model.metrics.restarts.total == 0


class TestBlockingBehavior:
    @pytest.mark.parametrize(
        "algorithm", ["immediate_restart", "optimistic", "mvto"]
    )
    def test_never_blocks(self, algorithm):
        model = run_model(algorithm)
        assert model.metrics.blocks.total == 0

    @pytest.mark.parametrize(
        "algorithm",
        ["blocking", "wound_wait", "wait_die", "static_locking"],
    )
    def test_lock_waiters_do_block(self, algorithm):
        model = run_model(algorithm)
        assert model.metrics.blocks.total > 0

    def test_basic_to_blocks_readers_on_prewrites(self):
        # Readers buffered behind earlier pending prewrites count as
        # blocks; under a write-heavy mix some must occur.
        model = run_model("basic_to", write_prob=0.8, until=60.0)
        assert model.metrics.blocks.total > 0


class TestMultiversionReadOnly:
    def test_read_only_transactions_never_restart_under_mvto(self):
        # The headline property of multiversion CC: readers are never
        # blocked or aborted, even against heavy write traffic.
        log = CommitLog()
        model = SystemModel(
            hot_params(write_prob=0.5), "mvto", seed=9, subscribers=(log,)
        )
        model.run_until(60.0)
        read_only = [tx for tx in log.transactions if not tx.write_set]
        assert read_only, "expected some read-only transactions"
        assert all(tx.attempts == 1 for tx in read_only)

    def test_read_only_can_restart_under_optimistic(self):
        # Contrast: optimistic validation aborts pure readers whose
        # read set was overwritten during their lifetime.
        log = CommitLog()
        model = SystemModel(
            hot_params(write_prob=0.5), "optimistic", seed=9,
            subscribers=(log,),
        )
        model.run_until(60.0)
        read_only_retried = [
            tx for tx in log.transactions
            if not tx.write_set and tx.attempts > 1
        ]
        assert read_only_retried, (
            "optimistic should occasionally restart pure readers"
        )


class TestWriteProbabilityExtremes:
    @pytest.mark.parametrize(
        "algorithm",
        ["blocking", "immediate_restart", "optimistic", "basic_to",
         "mvto", "wound_wait", "wait_die", "static_locking"],
    )
    def test_read_only_world_is_conflict_free(self, algorithm):
        model = SystemModel(
            hot_params(write_prob=0.0), algorithm, seed=11
        )
        model.run_until(20.0)
        assert model.metrics.commits.total > 0
        assert model.metrics.restarts.total == 0
        # basic TO never prewrites, locking never conflicts S-S.
        assert model.metrics.blocks.total == 0

"""Integration tests for the closed queuing model engine."""

import pytest

from repro.core import SimulationParameters, SystemModel
from repro.obs.events import TX_COMMIT_POINT


class CommitLog:
    """The committed transactions, collected at their commit points."""

    def __init__(self):
        self.transactions = []

    def handlers(self):
        append = self.transactions.append
        return {TX_COMMIT_POINT: lambda time, fields: append(fields["tx"])}


def run_logged(params, algorithm, seed, until):
    """Run a model to ``until``; return it and its CommitLog."""
    log = CommitLog()
    model = SystemModel(params, algorithm, seed=seed, subscribers=(log,))
    model.run_until(until)
    return model, log.transactions


def small_params(**overrides):
    base = dict(
        db_size=200,
        min_size=4,
        max_size=8,
        write_prob=0.25,
        num_terms=10,
        mpl=5,
        ext_think_time=0.5,
        obj_io=0.010,
        obj_cpu=0.005,
        num_cpus=1,
        num_disks=2,
    )
    base.update(overrides)
    return SimulationParameters(**base)


class TestAdmissionControl:
    def test_active_count_never_exceeds_mpl(self):
        model = SystemModel(small_params(mpl=3), "blocking", seed=2)
        violations = []

        def probe(env):
            while env.now < 20.0:
                if model.active_count > model.params.mpl:
                    violations.append((env.now, model.active_count))
                yield env.timeout(0.01)

        model.env.process(probe(model.env))
        model.run_until(20.0)
        assert violations == []

    def test_ready_queue_drains_into_slots(self):
        model = SystemModel(small_params(mpl=2, num_terms=10), "blocking")
        model.run_until(30.0)
        # With 10 terminals and mpl=2 there must have been queueing, yet
        # commits keep happening.
        assert model.metrics.commits.total > 10

    def test_mpl_of_one_serializes_everything(self):
        model = SystemModel(
            small_params(mpl=1, write_prob=0.5), "blocking", seed=3
        )
        model.run_until(40.0)
        assert model.metrics.commits.total > 0
        assert model.metrics.blocks.total == 0
        assert model.metrics.restarts.total == 0

    def test_mpl_limit_is_adjustable_at_runtime(self):
        model = SystemModel(small_params(mpl=5), "blocking", seed=4)
        model.run_until(5.0)
        model.mpl_limit = 1
        model.run_until(30.0)
        assert model.active_count <= 5  # old actives drained, no overshoot
        model.run_until(60.0)
        assert model.active_count <= 1


class TestTransactionFlow:
    def test_commits_happen_and_are_counted(self):
        model = SystemModel(small_params(), "blocking", seed=5)
        model.run_until(30.0)
        assert model.metrics.commits.total > 20

    def test_committed_history_records(self):
        model, history = run_logged(small_params(), "blocking", 5, 20.0)
        # The log is cut at the commit point, so at the run cutoff a
        # few transactions may be logged but still finishing their
        # deferred updates.
        completed = model.metrics.commits.total
        assert completed <= len(history) <= completed + model.params.mpl
        for tx in history:
            assert tx.write_set <= set(tx.read_set)
            assert tx.serial_key is not None

    def test_response_times_positive_and_sane(self):
        model = SystemModel(small_params(), "blocking", seed=6)
        model.run_until(30.0)
        stats = model.metrics.response_times
        assert stats.count > 0
        assert stats.min > 0.0
        # A transaction of at most 8 reads + writes cannot take less than
        # its raw service demand.
        assert stats.min >= 8 * 0.0  # loose lower bound, non-negative
        assert stats.mean < 30.0

    def test_restarted_transactions_replay_same_sets(self):
        params = small_params(
            db_size=20, write_prob=0.8, mpl=8, num_terms=8
        )
        model, history = run_logged(params, "blocking", 7, 60.0)
        restarted = [tx for tx in history if tx.attempts > 1]
        assert restarted, "expected deadlock restarts in this configuration"
        assert model.metrics.restarts.total > 0

    def test_interactive_think_time_increases_response(self):
        fast = SystemModel(small_params(), "blocking", seed=8)
        fast.run_until(40.0)
        slow = SystemModel(
            small_params(int_think_time=2.0, ext_think_time=3.0),
            "blocking",
            seed=8,
        )
        slow.run_until(40.0)
        assert (
            slow.metrics.response_times.mean
            > fast.metrics.response_times.mean + 1.0
        )

    def test_read_only_transactions_commit(self):
        model, history = run_logged(
            small_params(write_prob=0.0), "optimistic", 9, 20.0
        )
        assert model.metrics.commits.total > 0
        assert all(not tx.write_set for tx in history)
        # Nothing is ever installed by read-only transactions.
        assert model.store.installs == 0


class TestRestartDelays:
    def test_immediate_restart_applies_delay(self):
        params = small_params(db_size=30, write_prob=0.8, mpl=8)
        model = SystemModel(params, "immediate_restart", seed=10)
        delayed = []
        original = model._delayed_resubmit

        def spying(tx, delay):
            delayed.append(delay)
            return original(tx, delay)

        model._delayed_resubmit = spying
        model.run_until(40.0)
        assert model.metrics.restarts.total > 0
        assert delayed, "immediate-restart must delay its restarts"
        assert all(d > 0 for d in delayed)

    def test_blocking_restarts_without_delay_by_default(self):
        params = small_params(db_size=20, write_prob=0.8, mpl=8)
        model = SystemModel(params, "blocking", seed=11)
        delayed = []
        original = model._delayed_resubmit

        def spying(tx, delay):
            delayed.append(delay)
            return original(tx, delay)

        model._delayed_resubmit = spying
        model.run_until(60.0)
        assert model.metrics.restarts.total > 0
        assert delayed == []

    def test_adaptive_all_mode_delays_blocking_too(self):
        params = small_params(
            db_size=20, write_prob=0.8, mpl=8,
            restart_delay_mode="adaptive_all",
        )
        model = SystemModel(params, "blocking", seed=11)
        delayed = []
        original = model._delayed_resubmit

        def spying(tx, delay):
            delayed.append(delay)
            return original(tx, delay)

        model._delayed_resubmit = spying
        model.run_until(60.0)
        assert model.metrics.restarts.total > 0
        assert delayed

    def test_none_all_mode_never_delays(self):
        # Use blocking: its zero-delay restarts (deadlock victims) make
        # progress, unlike requester-restarting algorithms which would
        # livelock without a delay (see test below).
        params = small_params(
            db_size=20, write_prob=0.8, mpl=8,
            restart_delay_mode="none_all",
        )
        model = SystemModel(params, "blocking", seed=12)
        delayed = []
        model._delayed_resubmit = lambda tx, d: delayed.append(d)
        model.run_until(60.0)
        assert model.metrics.restarts.total > 0
        assert delayed == []

    def test_zero_delay_requester_restarts_detected_as_livelock(self):
        # immediate-restart with its delay stripped re-conflicts forever
        # at one instant; the engine must diagnose this loudly rather
        # than hang — the paper's rationale for the restart delay.
        params = small_params(
            db_size=10, write_prob=1.0, mpl=8,
            restart_delay_mode="none_all",
        )
        model = SystemModel(params, "immediate_restart", seed=13)
        with pytest.raises(RuntimeError, match="no restart delay"):
            model.run_until(60.0)

    def test_fixed_all_mode_uses_configured_mean(self):
        params = small_params(
            db_size=30, write_prob=0.8, mpl=8,
            restart_delay_mode="fixed_all", restart_delay=0.25,
        )
        model = SystemModel(params, "immediate_restart", seed=13)
        delays = []
        original = model._delayed_resubmit

        def spying(tx, delay):
            delays.append(delay)
            return original(tx, delay)

        model._delayed_resubmit = spying
        model.run_until(120.0)
        assert len(delays) > 10
        mean = sum(delays) / len(delays)
        assert 0.05 < mean < 1.0  # exponential around 0.25


class TestConservation:
    @pytest.mark.parametrize("algorithm", ["blocking", "optimistic"])
    def test_transaction_accounting_balances(self, algorithm):
        model = SystemModel(small_params(), algorithm, seed=14)
        model.run_until(30.0)
        generated = model.workload.generated
        commits = model.metrics.commits.total
        # Every generated transaction is committed, in flight, or queued;
        # commits can never exceed the number generated.
        assert commits <= generated
        in_system = model.active_count + len(model.ready_queue)
        assert in_system <= model.params.num_terms

    def test_store_installs_match_committed_writes(self):
        model, history = run_logged(small_params(), "blocking", 15, 30.0)
        expected = sum(len(tx.install_write_set) for tx in history)
        assert model.store.installs == expected


class TestSameInstantRestartTracker:
    """The zero-delay restart tracker must not leak across commits.

    Entries are added when a transaction restarts with no delay at the
    instant its attempt began; before the fix they were only removed on
    a *later-instant* restart, so a transaction whose final zero-delay
    restart was same-instant leaked its entry forever once it
    committed — unbounded growth over a long campaign.
    """

    def contended_none_all_params(self):
        # Contended enough for same-instant zero-delay restarts, calm
        # enough (with this seed) to stay under the livelock limit.
        return small_params(
            db_size=60, write_prob=0.5, mpl=6,
            restart_delay_mode="none_all",
        )

    def test_tracker_entries_do_not_survive_commit(self):
        model, history = run_logged(
            self.contended_none_all_params(), "immediate_restart", 7, 40.0
        )
        committed = {tx.id for tx in history}
        assert committed  # the scenario actually commits work
        # The run must have exercised the zero-delay restart path at
        # all, or this test guards nothing.
        assert model.metrics.restarts.total > 0
        # No committed transaction may retain a tracker entry; any
        # survivors belong to transactions still in flight.
        assert not set(model._same_instant_restarts) & committed

    def test_tracker_stays_empty_without_zero_delay_restarts(self):
        model = SystemModel(small_params(), "blocking", seed=4)
        model.run_until(20.0)
        assert model._same_instant_restarts == {}

    def test_delayed_resubmit_clears_tracker_entry(self):
        from types import SimpleNamespace

        model = SystemModel(small_params(), "blocking", seed=5)
        tx = SimpleNamespace(id=12345)
        model._same_instant_restarts[tx.id] = 3
        model.env.process(model._delayed_resubmit(tx, delay=50.0))
        # The entry is dropped when the resubmit process starts, long
        # before the delay elapses (the delay itself broke the streak).
        model.run_until(1.0)
        assert tx.id not in model._same_instant_restarts

"""Unit tests for the Optimistic (commit-time validation) algorithm."""

import pytest

from repro.cc import (
    DELAY_NONE,
    INSTALL_AT_PRE_COMMIT,
    REASON_VALIDATION,
    OptimisticCC,
    RestartTransaction,
)
from repro.des import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cc(env):
    return OptimisticCC().attach(env)


class TestOptimistic:
    def test_no_delay_policy_and_pre_commit_install(self, cc):
        assert cc.default_restart_delay == DELAY_NONE
        assert cc.install_at == INSTALL_AT_PRE_COMMIT

    def test_reads_and_writes_never_block(self, cc, make_tx):
        t = make_tx()
        assert cc.read_request(t, 1) is None
        assert cc.write_request(t, 1) is None

    def test_validation_passes_with_no_conflicts(self, env, cc, make_tx):
        t = make_tx(first_submit_time=0.0)
        t.attempt_start_time = 0.0
        t.read_set = (1, 2)
        t.write_set = frozenset({2})
        assert cc.pre_commit(t) is None
        assert cc.validations == 1
        assert cc.validation_failures == 0

    def test_conflicting_commit_fails_validation(self, env, cc):
        # writer commits object 5 at t=10; a reader that started at t=3
        # and read object 5 must fail validation.
        writer = type("T", (), {})()
        writer.id = 1
        writer.attempt_start_time = 0.0
        writer.read_set = (5,)
        writer.write_set = frozenset({5})
        env.run(until=10.0)
        assert cc.pre_commit(writer) is None

        reader = type("T", (), {})()
        reader.attempt_start_time = 3.0
        reader.read_set = (5, 6)
        reader.write_set = frozenset()
        env.run(until=12.0)
        with pytest.raises(RestartTransaction) as exc:
            cc.pre_commit(reader)
        assert exc.value.reason == REASON_VALIDATION
        assert cc.validation_failures == 1

    def test_commit_before_start_is_no_conflict(self, env, cc):
        writer = type("T", (), {})()
        writer.id = 1
        writer.attempt_start_time = 0.0
        writer.read_set = ()
        writer.write_set = frozenset({5})
        env.run(until=2.0)
        assert cc.pre_commit(writer) is None

        late_reader = type("T", (), {})()
        late_reader.attempt_start_time = 5.0  # started after the commit
        late_reader.read_set = (5,)
        late_reader.write_set = frozenset()
        env.run(until=8.0)
        assert cc.pre_commit(late_reader) is None

    def test_unrelated_objects_do_not_conflict(self, env, cc):
        writer = type("T", (), {})()
        writer.id = 1
        writer.attempt_start_time = 0.0
        writer.read_set = ()
        writer.write_set = frozenset({1})
        env.run(until=4.0)
        assert cc.pre_commit(writer) is None

        reader = type("T", (), {})()
        reader.attempt_start_time = 2.0
        reader.read_set = (2,)
        reader.write_set = frozenset()
        assert cc.pre_commit(reader) is None

    def test_write_write_without_read_overlap_passes(self, env, cc):
        # Blind writes: validation only checks the read set (backward
        # validation against committed writers).
        w1 = type("T", (), {})()
        w1.id = 1
        w1.attempt_start_time = 0.0
        w1.read_set = ()
        w1.write_set = frozenset({9})
        env.run(until=1.0)
        assert cc.pre_commit(w1) is None

        w2 = type("T", (), {})()
        w2.id = 2
        w2.attempt_start_time = 0.5
        w2.read_set = ()
        w2.write_set = frozenset({9})
        env.run(until=2.0)
        assert cc.pre_commit(w2) is None

    @pytest.mark.parametrize("seen_writer, conflict", [(1, True), (2, False)])
    def test_write_at_attempt_start_conflicts_only_if_read_first(
            self, env, cc, seen_writer, conflict):
        # tx 2 commits object 5 at t=2.0, the instant the reader's
        # attempt starts; the reader read object 5 either before that
        # install (saw tx 1's version) or after it (saw tx 2's).
        writer = type("T", (), {})()
        writer.id = 2
        writer.attempt_start_time = 1.0
        writer.read_set = ()
        writer.write_set = frozenset({5})
        env.run(until=2.0)
        assert cc.pre_commit(writer) is None

        reader = type("T", (), {})()
        reader.attempt_start_time = 2.0
        reader.read_set = (5,)
        reader.write_set = frozenset()
        reader.reads_seen = {5: seen_writer}
        env.run(until=3.0)
        if conflict:
            with pytest.raises(RestartTransaction):
                cc.pre_commit(reader)
        else:
            assert cc.pre_commit(reader) is None

    def test_same_instant_install_keeps_history_serializable(self):
        # A small closed model where tx 763 is admitted, and reads
        # object 20, at the instant tx 762 commits a write to it.
        from repro.core import SimulationParameters, SystemModel
        from repro.obs import InvariantChecker

        params = SimulationParameters(
            db_size=30, min_size=1, max_size=2, write_prob=0.1,
            num_terms=4, mpl=2, ext_think_time=0.05,
            obj_io=0.008, obj_cpu=0.004, num_cpus=None, num_disks=1,
        )
        checker = InvariantChecker(mode="strict")
        model = SystemModel(params, "optimistic", seed=0,
                            subscribers=(checker,))
        model.run_until(15.0)
        report = checker.report()
        assert report["violations"] == []
        assert report["serializability"]["reads"] > 0

    def test_abort_keeps_no_state(self, cc, make_tx):
        t = make_tx()
        cc.abort(t)  # must not raise

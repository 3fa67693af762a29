"""Tests for the Transaction object and its attempt lifecycle."""

import pytest

from repro.core import Transaction, TxState


def make(reads=(1, 2, 3), writes=(2,)):
    return Transaction(1, terminal_id=0, read_set=reads, write_set=writes)


class TestConstruction:
    def test_basic_fields(self):
        tx = make()
        assert tx.id == 1
        assert tx.read_set == (1, 2, 3)
        assert tx.write_set == frozenset({2})
        assert tx.state is TxState.AT_TERMINAL
        assert tx.size == 3

    def test_write_set_must_be_subset(self):
        with pytest.raises(ValueError):
            Transaction(1, 0, read_set=(1, 2), write_set=(3,))


class TestAttemptLifecycle:
    def test_begin_attempt_resets_state(self):
        tx = make()
        tx.begin_attempt(5.0, cc_timestamp=(5.0, 1))
        tx.attempt_cpu_time = 1.0
        tx.reads_seen[1] = 42
        tx.install_write_set = frozenset()
        tx.begin_attempt(9.0, cc_timestamp=(9.0, 2))
        assert tx.attempts == 2
        assert tx.attempt_start_time == 9.0
        assert tx.attempt_cpu_time == 0.0
        assert tx.reads_seen == {}
        assert tx.install_write_set == tx.write_set
        assert tx.state is TxState.RUNNING
        assert tx.cc_timestamp == (9.0, 2)

    def test_is_committing(self):
        tx = make()
        assert not tx.is_committing
        tx.state = TxState.COMMITTING
        assert tx.is_committing

    def test_response_time(self):
        tx = make()
        assert tx.response_time() is None
        tx.first_submit_time = 2.0
        assert tx.response_time() is None
        tx.commit_time = 10.0
        assert tx.response_time() == pytest.approx(8.0)

    def test_repr_contains_state(self):
        assert "at_terminal" in repr(make())

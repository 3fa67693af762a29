"""Unit tests for Multiversion Timestamp Ordering."""

import pytest

from repro.cc import (
    REASON_TIMESTAMP,
    MultiversionTimestampOrderingCC,
    RestartTransaction,
)
from repro.des import Environment


@pytest.fixture
def cc():
    return MultiversionTimestampOrderingCC().attach(Environment())


def stamped(make_tx, ts, writes=()):
    tx = make_tx()
    tx.cc_timestamp = (float(ts), tx.id)
    tx.write_set = frozenset(writes)
    return tx


class TestReads:
    def test_reads_never_block_or_abort(self, cc, make_tx):
        t = stamped(make_tx, 1)
        cc.begin(t)
        assert cc.read_request(t, 1) is None

    def test_read_sees_initial_version(self, cc, make_tx):
        t = stamped(make_tx, 1)
        cc.begin(t)
        cc.read_request(t, 1)
        assert t.mv_reads_from == {1: None}

    def test_read_selects_version_by_timestamp(self, cc, make_tx):
        w1 = stamped(make_tx, 10, writes={1})
        cc.begin(w1)
        cc.write_request(w1, 1)
        cc.pre_commit(w1)
        cc.finalize_commit(w1)
        w2 = stamped(make_tx, 20, writes={1})
        cc.begin(w2)
        cc.write_request(w2, 1)
        cc.pre_commit(w2)
        cc.finalize_commit(w2)
        # A reader between the two versions sees w1's version.
        r = stamped(make_tx, 15)
        cc.begin(r)
        cc.read_request(r, 1)
        assert r.mv_reads_from == {1: w1.id}
        # A reader after both sees w2's.
        r2 = stamped(make_tx, 25)
        cc.begin(r2)
        cc.read_request(r2, 1)
        assert r2.mv_reads_from == {1: w2.id}

    def test_old_reader_not_aborted_by_newer_committed_write(self, cc, make_tx):
        w = stamped(make_tx, 10, writes={1})
        cc.begin(w)
        cc.write_request(w, 1)
        cc.pre_commit(w)
        cc.finalize_commit(w)
        # Single-version basic TO would restart this reader; MVTO serves
        # the initial version instead.
        r = stamped(make_tx, 5)
        cc.begin(r)
        assert cc.read_request(r, 1) is None
        assert r.mv_reads_from == {1: None}


class TestWrites:
    def test_write_invalidating_a_read_restarts(self, cc, make_tx):
        r = stamped(make_tx, 10)
        cc.begin(r)
        cc.read_request(r, 1)  # reads initial version, rts=10
        w = stamped(make_tx, 5, writes={1})
        cc.begin(w)
        with pytest.raises(RestartTransaction) as exc:
            cc.write_request(w, 1)
        assert exc.value.reason == REASON_TIMESTAMP

    def test_write_after_all_reads_ok(self, cc, make_tx):
        r = stamped(make_tx, 10)
        cc.begin(r)
        cc.read_request(r, 1)
        w = stamped(make_tx, 15, writes={1})
        cc.begin(w)
        assert cc.write_request(w, 1) is None
        assert cc.pre_commit(w) is None

    def test_write_rule_rechecked_at_install(self, cc, make_tx):
        w = stamped(make_tx, 5, writes={1})
        cc.begin(w)
        assert cc.write_request(w, 1) is None  # passes early check
        # A reader with a later stamp arrives before w installs...
        r = stamped(make_tx, 8)
        cc.begin(r)
        cc.read_request(r, 1)  # reads initial version, rts=8 > 5
        # ...so w's install must be rejected.
        with pytest.raises(RestartTransaction):
            cc.pre_commit(w)

    def test_interleaved_version_install_allowed(self, cc, make_tx):
        w2 = stamped(make_tx, 20, writes={1})
        cc.begin(w2)
        cc.write_request(w2, 1)
        cc.pre_commit(w2)
        cc.finalize_commit(w2)
        # An older writer may still slot its version beneath w2's as long
        # as no reader depended on the gap.
        w1 = stamped(make_tx, 10, writes={1})
        cc.begin(w1)
        assert cc.write_request(w1, 1) is None
        assert cc.pre_commit(w1) is None

    def test_version_keys(self, cc, make_tx):
        t = stamped(make_tx, 10)
        cc.begin(t)
        assert cc.serial_key(t) == t.cc_timestamp
        assert cc.reader_version_key(t) == t.cc_timestamp


class TestPruning:
    def test_chains_are_bounded(self, cc, make_tx):
        cc.max_versions = 4
        for i in range(50):
            w = stamped(make_tx, i + 1, writes={1})
            cc.begin(w)
            cc.write_request(w, 1)
            cc.pre_commit(w)
            cc.finalize_commit(w)
        chain = cc._chains[1]
        assert len(chain.versions) <= cc.max_versions + 1

    def test_pruning_preserves_oldest_active_reader(self, cc, make_tx):
        cc.max_versions = 2
        old_reader = stamped(make_tx, 2)
        cc.begin(old_reader)  # active with ts=2
        for i in range(10, 60, 10):
            w = stamped(make_tx, i, writes={1})
            cc.begin(w)
            cc.write_request(w, 1)
            cc.pre_commit(w)
            cc.finalize_commit(w)
        # The version the old reader needs (the initial one) must survive.
        assert cc.read_request(old_reader, 1) is None
        assert old_reader.mv_reads_from[1] is None

"""Tests for the commit-protocol seam and two-phase commit.

The seam's contract: a null protocol (``single_site``) leaves every
run bit-identical to pre-seam builds (golden digests), and 2PC
composes with *every* registered algorithm — prepare/vote round trips
before the commit point, a decision stage after the writes install —
with the invariant checker auditing the quorum on the live event
stream.
"""

import pytest

from repro.cc import (
    CommitProtocol,
    SingleSiteCommit,
    TwoPhaseCommit,
    algorithm_names,
    commit_protocol_names,
    create_commit_protocol,
    register_commit_protocol,
)
from repro.cc.registry import _COMMIT_PROTOCOLS
from repro.core.params import RunConfig
from repro.core.simulation import run_simulation
from repro.obs.events import TWO_PC_DECIDE, TWO_PC_PREPARE, TWO_PC_VOTE
from repro.obs.invariants import InvariantChecker, InvariantViolationError
from tests.resources.test_golden_parity import FINITE, GOLDEN, _fingerprint

#: Short run for the all-algorithms composition matrix.
RUN = RunConfig(batches=2, batch_time=5.0, warmup_batches=1, seed=99)
GOLDEN_RUN = RunConfig(
    batches=3, batch_time=10.0, warmup_batches=1, seed=20250807
)


class TestRegistry:
    def test_builtin_names(self):
        assert commit_protocol_names() == ["2pc", "single_site"]

    def test_create_round_trip(self):
        assert isinstance(
            create_commit_protocol("single_site"), SingleSiteCommit
        )
        assert isinstance(create_commit_protocol("2pc"), TwoPhaseCommit)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="single_site"):
            create_commit_protocol("three_phase")

    def test_register_custom_protocol(self):
        class PaxosCommit(CommitProtocol):
            name = "test_paxos"
            is_null = False

        try:
            register_commit_protocol(PaxosCommit)
            assert isinstance(
                create_commit_protocol("test_paxos"), PaxosCommit
            )
        finally:
            _COMMIT_PROTOCOLS.pop("test_paxos", None)

    def test_nameless_class_rejected(self):
        class Nameless(CommitProtocol):
            pass

        with pytest.raises(ValueError, match="name"):
            register_commit_protocol(Nameless)


class TestNullProtocolParity:
    """Explicit single_site (and degenerate 2PC) match the golden runs."""

    def test_explicit_single_site_is_bit_identical(self):
        params = FINITE.with_changes(commit_protocol="single_site")
        result = run_simulation(
            params, algorithm="blocking", run=GOLDEN_RUN
        )
        assert _fingerprint(result) == GOLDEN[("blocking", "finite")]

    def test_2pc_with_no_participants_degenerates(self):
        # One node means every participant set is empty: 2PC charges
        # nothing and the digest still matches the classic golden run.
        params = FINITE.with_changes(
            resource_model="distributed", nodes=1, commit_protocol="2pc",
        )
        result = run_simulation(
            params, algorithm="blocking", run=GOLDEN_RUN
        )
        assert _fingerprint(result) == GOLDEN[("blocking", "finite")]


FOUR_NODE_2PC = FINITE.with_changes(
    resource_model="distributed", nodes=4,
    network_delay=0.005, commit_protocol="2pc",
    replication_factor=2,
)


class TestTwoPhaseCommitComposition:
    """2PC runs clean under strict invariants with every algorithm."""

    @pytest.mark.parametrize(
        "algorithm", [a for a in algorithm_names() if a != "noop"]
    )
    def test_strict_invariants_at_four_nodes(self, algorithm):
        result = run_simulation(
            FOUR_NODE_2PC, algorithm=algorithm, run=RUN,
            invariants="strict",
        )
        report = result.diagnostics["invariants"]
        assert report["violations"] == []
        assert report["serializability"]["reads"] > 0
        assert result.totals["commits"] > 0
        assert result.totals["network"]["messages"] > 0

    def test_noop_fails_serializability_at_four_nodes(self):
        with pytest.raises(InvariantViolationError) as excinfo:
            run_simulation(
                FOUR_NODE_2PC, algorithm="noop", run=RUN,
                invariants="strict",
            )
        assert excinfo.value.violation.invariant == "serializability"

    def test_2pc_slows_commits_down(self):
        base = FINITE.with_changes(
            resource_model="distributed", nodes=4, network_delay=0.01,
        )
        single = run_simulation(base, algorithm="blocking", run=RUN)
        two_pc = run_simulation(
            base.with_changes(commit_protocol="2pc"),
            algorithm="blocking", run=RUN,
        )
        # The handshake ships extra messages and stretches every
        # multi-node commit by prepare round trips.
        assert (two_pc.totals["network"]["messages"]
                > single.totals["network"]["messages"])


class _Tx:
    def __init__(self, tx_id):
        self.id = tx_id


def drive(checker, kind, time, **fields):
    checker.handlers()[kind](time, fields)


class TestQuorumChecker:
    """Synthetic-event unit tests for the 2pc_quorum invariant."""

    def _checker(self):
        return InvariantChecker(mode="warn", check_locks=False)

    def test_clean_prepare_vote_decide(self):
        checker = self._checker()
        tx = _Tx(1)
        drive(checker, TWO_PC_PREPARE, 1.0, tx=tx, node=1)
        drive(checker, TWO_PC_VOTE, 1.1, tx=tx, node=1, vote="yes")
        drive(checker, TWO_PC_PREPARE, 1.2, tx=tx, node=2)
        drive(checker, TWO_PC_VOTE, 1.3, tx=tx, node=2, vote="yes")
        drive(checker, TWO_PC_DECIDE, 1.4, tx=tx, decision="commit",
              quorum=2)
        assert checker.violations == []

    def test_vote_without_prepare_violates(self):
        checker = self._checker()
        drive(checker, TWO_PC_VOTE, 1.0, tx=_Tx(1), node=3, vote="yes")
        assert [v.invariant for v in checker.violations] == ["2pc_quorum"]

    def test_decide_without_all_votes_violates(self):
        checker = self._checker()
        tx = _Tx(1)
        drive(checker, TWO_PC_PREPARE, 1.0, tx=tx, node=1)
        drive(checker, TWO_PC_PREPARE, 1.1, tx=tx, node=2)
        drive(checker, TWO_PC_VOTE, 1.2, tx=tx, node=1, vote="yes")
        drive(checker, TWO_PC_DECIDE, 1.3, tx=tx, decision="commit",
              quorum=2)
        assert [v.invariant for v in checker.violations] == ["2pc_quorum"]
        assert checker.violations[0].details["unvoted"] == [2]

    def test_quorum_mismatch_violates(self):
        checker = self._checker()
        tx = _Tx(1)
        drive(checker, TWO_PC_PREPARE, 1.0, tx=tx, node=1)
        drive(checker, TWO_PC_VOTE, 1.1, tx=tx, node=1, vote="yes")
        drive(checker, TWO_PC_DECIDE, 1.2, tx=tx, decision="commit",
              quorum=5)
        assert [v.invariant for v in checker.violations] == ["2pc_quorum"]

    def test_double_prepare_violates(self):
        checker = self._checker()
        tx = _Tx(1)
        drive(checker, TWO_PC_PREPARE, 1.0, tx=tx, node=1)
        drive(checker, TWO_PC_PREPARE, 1.1, tx=tx, node=1)
        assert [v.invariant for v in checker.violations] == ["2pc_quorum"]

    def test_message_pairing(self):
        from repro.obs.events import MSG_RECV, MSG_SEND

        checker = self._checker()
        tx = _Tx(1)
        drive(checker, MSG_SEND, 1.0, tx=tx, src=0, dst=1)
        drive(checker, MSG_RECV, 1.1, tx=tx, src=0, dst=1)
        assert checker.violations == []
        drive(checker, MSG_RECV, 1.2, tx=tx, src=0, dst=1)
        assert [v.invariant for v in checker.violations] == [
            "message_pairing"
        ]

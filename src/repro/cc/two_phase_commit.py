"""Two-phase commit as a composable commit-protocol wrapper.

Wraps any registered concurrency-control algorithm's commit point in
the classic presumed-nothing 2PC handshake, charged through the
physical tier's network legs:

* **Prepare phase** (before the algorithm's ``pre_commit``): the
  coordinator — the transaction's home node — sends one prepare
  message to every remote participant and waits for its vote, one
  round trip per participant (``2pc_prepare``/``2pc_vote`` bus
  events bracket each; like the legs' ``msg_*`` events, they are built
  only when the bus's ``wants_msg`` flag is up). Each leg is one
  ``network_leg`` call: it emits ``msg_send`` and returns the event the
  message arrives at; the protocol yields it and emits ``msg_recv``.
  For blocking-style algorithms the transaction's locks are naturally
  held across this window (they are released in ``finalize_commit``,
  which runs after the decision stage); for optimistic the local
  validation that follows the window is the coordinator's own vote.
* **Decision phase** (after the writes install, before
  ``finalize_commit``): one ``2pc_decide`` event records the commit
  decision with its vote quorum, then one decision message ships to
  each participant. Decision acknowledgements are not charged — the
  outcome is durable at the coordinator, so the transaction need not
  wait on them (presumed commit for the happy path).

Three messages per remote participant per commit, the textbook 2PC
cost. A participant set of zero (a one-node topology, or a single-site
resource model — the base model's ``participant_nodes`` returns
nothing) degenerates to the paper's atomic commit point: no legs, no
prepare/vote events, only the zero-quorum decision record.

An abort during the prepare window (e.g. optimistic validation
failure) discards the prepare state; the invariant checker treats the
``restart`` lifecycle event as resolving the outstanding prepares
(abort-decision messages are not charged: the attempt is already
unwinding and re-runs from scratch).
"""

from repro.cc.base import CommitProtocol

__all__ = ["TwoPhaseCommit"]


class TwoPhaseCommit(CommitProtocol):
    """Prepare/vote round trips per participant, then decision legs."""

    name = "2pc"
    is_null = False

    def __init__(self):
        super().__init__()
        #: tx id -> tuple of participant nodes that voted, kept from
        #: the prepare window until the decision stage consumes it.
        self._prepared = {}

    def attach(self, model):
        # Deferred import: repro.cc must stay importable without
        # touching repro.obs (whose package init reaches back through
        # repro.core.engine into repro.cc). By attach time the import
        # graph is settled.
        from repro.obs.events import (
            MSG_RECV,
            TWO_PC_DECIDE,
            TWO_PC_PREPARE,
            TWO_PC_VOTE,
        )

        self._kind_recv = MSG_RECV
        self._kind_prepare = TWO_PC_PREPARE
        self._kind_vote = TWO_PC_VOTE
        self._kind_decide = TWO_PC_DECIDE
        return super().attach(model)

    def participants(self, tx):
        """Remote nodes involved in ``tx`` (the physical tier knows)."""
        return tuple(self.model.physical.participant_nodes(tx))

    def prepare(self, tx):
        model = self.model
        physical = model.physical
        participants = self.participants(tx)
        self._prepared[tx.id] = participants
        if not participants:
            return
        bus = model.bus
        home = physical.home_node(tx)
        network_leg = physical.network_leg
        recv = self._kind_recv
        for node in participants:
            # Per-message events, built only when observed (wants_msg).
            if bus.wants_msg:
                bus.emit(self._kind_prepare, tx=tx, node=node)
            # One round trip per participant: the prepare message out,
            # the participant's vote back. Sequential — the modeled
            # coordinator processes one participant channel at a time.
            leg = network_leg(tx, home, node)
            if leg is not None:
                yield leg
            if bus.wants_msg:
                bus.emit(recv, tx=tx, src=home, dst=node)
            leg = network_leg(tx, node, home)
            if leg is not None:
                yield leg
            if bus.wants_msg:
                bus.emit(recv, tx=tx, src=node, dst=home)
                bus.emit(self._kind_vote, tx=tx, node=node, vote="yes")

    def decide(self, tx):
        model = self.model
        participants = self._prepared.pop(tx.id, ())
        model.bus.emit(
            self._kind_decide, tx=tx, decision="commit",
            quorum=len(participants),
        )
        physical = model.physical
        bus = model.bus
        home = physical.home_node(tx)
        for node in participants:
            leg = physical.network_leg(tx, home, node)
            if leg is not None:
                yield leg
            if bus.wants_msg:
                bus.emit(self._kind_recv, tx=tx, src=home, dst=node)

    def abort(self, tx):
        self._prepared.pop(tx.id, None)

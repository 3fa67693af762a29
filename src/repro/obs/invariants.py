"""Runtime invariant checking: the simulation audits itself as it runs.

The paper's conclusions rest on the simulator's internal bookkeeping
being exactly right — a silent conservation-law violation corrupts an
entire experiment grid without changing the shape of any curve enough
to notice. :class:`InvariantChecker` is an :class:`~repro.obs.bus.
InstrumentationBus` subscriber that continuously enforces the model's
structural identities on the *existing* event stream (no new emission
points), so any run can be audited by attaching it:

* **transaction conservation** — every transaction ever submitted is,
  at every instant, in exactly one of: the ready queue, the active set,
  restart limbo (aborted, not yet resubmitted), or committed; the
  per-transaction lifecycle automaton (submit -> admit -> commit |
  restart -> resubmit -> ...) admits no other move;
* **flow balance under re-entry** — workload models with feedback
  routing (the ``trace`` model) may submit a *new* transaction when an
  old one completes; each re-entry carries ``reentry_of``, so the
  conservation identity generalizes per routing class: re-entries
  never exceed completions, and a class never completes more
  transactions than it submitted;
* **simulated-clock monotonicity** — event timestamps never decrease;
* **admission control** — an admission never exceeds the (possibly
  adaptively retuned) multiprogramming limit in force when it happens;
* **resource busy/idle pairing** — every server's busy count moves in
  matched +1/-1 steps, never below zero and never above the server
  pool's capacity (utilization <= capacity);
* **lock-grant exclusivity** — for the blocking (strict 2PL) algorithm,
  a granted write on an object excludes every other holder and a
  granted read excludes foreign writers, between grant and
  commit/abort (a deadlock victim's locks go when it is picked, so a
  grant against blocked holders only is settled by their restarts);
* **commit-point ordering** — a transaction commits only after exactly
  one commit point in its final attempt, and can no longer restart once
  its writes are installed;
* **message pairing** — across the network legs of a multi-site run,
  deliveries never outnumber sends (each ``msg_recv`` pairs with an
  earlier ``msg_send``);
* **two-phase-commit quorum** — every vote answers an outstanding
  prepare, a commit decision is recorded only once every prepared
  participant has voted (its ``quorum`` equals the prepare count), and
  a transaction neither completes with an undecided prepare window
  open nor restarts without discarding it.

Modes: ``strict`` raises :class:`InvariantViolationError` at the
violating event; ``warn`` records every violation (capped) and lets the
run finish. Either way the structured records flow into
``SimulationResult.diagnostics["invariants"]`` so they persist through
checkpoints and saved sweeps.

The checker is a pure observer: attaching it leaves a fixed-seed run's
results bit-identical (it only reads event fields), and leaving it off
costs nothing — the bus's ``wants_*`` fast-path flags mean the engine
never even builds fields for the high-volume kinds nobody subscribed
to.
"""

from repro.obs.events import (
    CC_GRANT,
    MSG_RECV,
    MSG_SEND,
    RESOURCE_BUSY,
    RESOURCE_IDLE,
    TWO_PC_DECIDE,
    TWO_PC_PREPARE,
    TWO_PC_VOTE,
    TX_ADMIT,
    TX_BLOCK,
    TX_COMMIT_POINT,
    TX_COMPLETE,
    TX_RESTART,
    TX_RESUBMIT,
    TX_SUBMIT,
)

__all__ = [
    "INVARIANT_MODES",
    "InvariantChecker",
    "InvariantViolation",
    "InvariantViolationError",
    "resolve_invariant_mode",
]

#: Accepted values of every ``invariants=`` knob (CLI, env, API).
INVARIANT_MODES = ("strict", "warn", "off")

#: Environment variable consulted when no explicit mode is passed —
#: lets CI run an unmodified test suite with checking enabled.
INVARIANTS_ENV = "REPRO_INVARIANTS"

#: ``warn`` mode stops recording after this many violations so a
#: systematically broken run cannot exhaust memory with records.
MAX_RECORDED_VIOLATIONS = 100

# Transaction phases of the conservation automaton.
_READY = "ready"
_ACTIVE = "active"
_LIMBO = "limbo"  # restarted, not yet resubmitted


class InvariantViolation:
    """One structured violation record (JSON-serializable via dict())."""

    __slots__ = ("time", "invariant", "message", "details")

    def __init__(self, time, invariant, message, details=None):
        self.time = time
        self.invariant = invariant
        self.message = message
        self.details = details or {}

    def to_dict(self):
        return {
            "time": self.time,
            "invariant": self.invariant,
            "message": self.message,
            "details": self.details,
        }

    def __repr__(self):
        return (
            f"<InvariantViolation {self.invariant} t={self.time:.6g}: "
            f"{self.message}>"
        )


class InvariantViolationError(AssertionError):
    """A simulation invariant broke (strict mode).

    Subclasses :class:`AssertionError` deliberately: a violation means
    the *harness* is wrong, not the configuration, so it must never be
    degraded to a retryable per-point failure.
    """

    def __init__(self, violation):
        super().__init__(
            f"invariant {violation.invariant!r} violated at "
            f"t={violation.time:.6g}: {violation.message}"
        )
        self.violation = violation


def resolve_invariant_mode(mode=None, environ=None):
    """Normalize an ``invariants=`` knob to one of :data:`INVARIANT_MODES`.

    ``None`` falls back to the ``REPRO_INVARIANTS`` environment
    variable, then to ``"off"`` — so exporting the variable turns
    checking on for an unmodified test suite or script.
    """
    if mode is None:
        import os

        source = environ if environ is not None else os.environ
        mode = source.get(INVARIANTS_ENV) or "off"
    if mode not in INVARIANT_MODES:
        raise ValueError(
            f"invariants mode must be one of {INVARIANT_MODES}, "
            f"got {mode!r}"
        )
    return mode


class InvariantChecker:
    """Bus subscriber enforcing the model's structural identities.

    ``mode`` is ``"strict"`` (raise at the violating event) or
    ``"warn"`` (record and continue). ``check_locks`` forces the
    lock-exclusivity invariant on or off; the default (None) enables it
    automatically when the attached model runs the blocking algorithm.
    """

    def __init__(self, mode="strict", check_locks=None):
        if mode not in ("strict", "warn"):
            raise ValueError(
                f"mode must be 'strict' or 'warn', got {mode!r}"
            )
        self.mode = mode
        self.check_locks = check_locks
        self.violations = []
        self.events_checked = 0
        #: Violations seen but not recorded (warn mode past the cap).
        self.suppressed = 0
        self._last_time = None
        # Conservation automaton state.
        self._phase = {}       # tx id -> _READY/_ACTIVE/_LIMBO
        self._commit_point = set()  # tx ids past their commit point
        self._submitted = 0
        self._committed = 0
        self._ready = 0
        self._active = 0
        self._limbo = 0
        # Flow-balance state for feedback/re-entry routing.
        self._reentries = 0
        self._class_submitted = {}  # routing class -> submissions
        self._class_committed = {}  # routing class -> completions
        # Resource pairing state: resource key -> (busy count, capacity).
        self._busy = {}
        # Lock table for the exclusivity check: obj -> [writer, readers],
        # indexed by tx id -> objects granted to it since its release.
        self._locks = {}
        self._granted = {}
        # Tx ids blocked since their last grant (deadlock-victim
        # candidates), and grants that conflicted only with such
        # holders: holder id -> [(grant time, message, details)].
        self._blocked = set()
        self._pending_grants = {}
        # Network / commit-protocol state.
        self._msgs_sent = 0
        self._msgs_received = 0
        self._prepares = {}  # tx id -> set of prepared participant nodes
        self._votes = {}     # tx id -> set of participant nodes that voted
        self._model = None

    # -- subscriber protocol -------------------------------------------------

    def on_attach(self, bus, model):
        self._model = model
        if self.check_locks is None and model is not None:
            self.check_locks = (
                getattr(model.cc, "name", None) == "blocking"
            )

    def handlers(self):
        return {
            TX_SUBMIT: self._on_submit,
            TX_RESUBMIT: self._on_resubmit,
            TX_ADMIT: self._on_admit,
            TX_BLOCK: self._on_block,
            TX_RESTART: self._on_restart,
            TX_COMMIT_POINT: self._on_commit_point,
            TX_COMPLETE: self._on_complete,
            RESOURCE_BUSY: self._on_resource_busy,
            RESOURCE_IDLE: self._on_resource_idle,
            CC_GRANT: self._on_cc_grant,
            MSG_SEND: self._on_msg_send,
            MSG_RECV: self._on_msg_recv,
            TWO_PC_PREPARE: self._on_2pc_prepare,
            TWO_PC_VOTE: self._on_2pc_vote,
            TWO_PC_DECIDE: self._on_2pc_decide,
        }

    # -- violation plumbing --------------------------------------------------

    def _violate(self, time, invariant, message, **details):
        violation = InvariantViolation(time, invariant, message, details)
        if self.mode == "strict":
            raise InvariantViolationError(violation)
        if len(self.violations) < MAX_RECORDED_VIOLATIONS:
            self.violations.append(violation)
        else:
            self.suppressed += 1

    def _tick(self, time):
        """Shared per-event bookkeeping: count + clock monotonicity."""
        self.events_checked += 1
        last = self._last_time
        if last is not None and time < last:
            self._violate(
                time, "clock_monotonicity",
                f"event time {time!r} precedes previous event time "
                f"{last!r}",
                previous=last,
            )
        self._last_time = time

    # -- transaction lifecycle ----------------------------------------------

    def _enter_ready(self, time, tx, kind, expected_phase):
        phase = self._phase.get(tx.id)
        if phase != expected_phase:
            self._violate(
                time, "conservation",
                f"{kind} of tx {tx.id} in phase {phase!r} "
                f"(expected {expected_phase!r})",
                tx=tx.id, phase=phase, event=kind,
            )
            return
        self._phase[tx.id] = _READY
        self._ready += 1

    @staticmethod
    def _routing_class(tx):
        return getattr(tx, "tx_class", None) or "default"

    def _on_submit(self, time, fields):
        self._tick(time)
        tx = fields["tx"]
        self._submitted += 1
        cls = self._routing_class(tx)
        self._class_submitted[cls] = self._class_submitted.get(cls, 0) + 1
        if getattr(tx, "reentry_of", None) is not None:
            self._reentries += 1
            # Flow balance: a re-entry is routed from a completion, so
            # re-entries can never outnumber completed transactions.
            if self._reentries > self._committed:
                self._violate(
                    time, "flow_balance",
                    f"{self._reentries} re-entries exceed "
                    f"{self._committed} completions (tx {tx.id} "
                    f"re-enters from tx {tx.reentry_of})",
                    tx=tx.id, reentry_of=tx.reentry_of,
                    reentries=self._reentries,
                    committed=self._committed,
                )
        self._enter_ready(time, tx, TX_SUBMIT, None)
        self._check_conservation(time)

    def _on_resubmit(self, time, fields):
        self._tick(time)
        tx = fields["tx"]
        if self._phase.get(tx.id) == _LIMBO:
            self._limbo -= 1
        self._enter_ready(time, tx, TX_RESUBMIT, _LIMBO)
        self._check_conservation(time)

    def _on_admit(self, time, fields):
        self._tick(time)
        tx = fields["tx"]
        phase = self._phase.get(tx.id)
        if phase != _READY:
            self._violate(
                time, "conservation",
                f"admit of tx {tx.id} in phase {phase!r} "
                f"(expected 'ready')",
                tx=tx.id, phase=phase, event=TX_ADMIT,
            )
            return
        self._phase[tx.id] = _ACTIVE
        self._ready -= 1
        self._active += 1
        self._commit_point.discard(tx.id)
        model = self._model
        if model is not None:
            limit = getattr(model, "mpl_limit", None)
            if limit is not None and self._active > limit:
                self._violate(
                    time, "admission_control",
                    f"{self._active} active transactions exceed the "
                    f"multiprogramming limit {limit}",
                    active=self._active, mpl_limit=limit,
                )
        self._check_conservation(time)

    def _on_block(self, time, fields):
        self._tick(time)
        tx = fields["tx"]
        self._settle_grants(time, tx.id, TX_BLOCK)
        self._blocked.add(tx.id)
        phase = self._phase.get(tx.id)
        if phase != _ACTIVE:
            self._violate(
                time, "conservation",
                f"block of tx {tx.id} in phase {phase!r} "
                f"(expected 'active')",
                tx=tx.id, phase=phase, event=TX_BLOCK,
            )

    def _on_commit_point(self, time, fields):
        self._tick(time)
        tx = fields["tx"]
        self._settle_grants(time, tx.id, TX_COMMIT_POINT)
        phase = self._phase.get(tx.id)
        if phase != _ACTIVE:
            self._violate(
                time, "commit_point_ordering",
                f"commit point of tx {tx.id} in phase {phase!r} "
                f"(expected 'active')",
                tx=tx.id, phase=phase,
            )
            return
        if tx.id in self._commit_point:
            self._violate(
                time, "commit_point_ordering",
                f"tx {tx.id} reached a second commit point in one "
                f"attempt",
                tx=tx.id,
            )
            return
        self._commit_point.add(tx.id)

    def _on_restart(self, time, fields):
        self._tick(time)
        tx = fields["tx"]
        self._settle_grants(time, tx.id, TX_RESTART)
        self._blocked.discard(tx.id)
        phase = self._phase.get(tx.id)
        if phase != _ACTIVE:
            self._violate(
                time, "conservation",
                f"restart of tx {tx.id} in phase {phase!r} "
                f"(expected 'active')",
                tx=tx.id, phase=phase, event=TX_RESTART,
            )
            return
        if tx.id in self._commit_point:
            self._violate(
                time, "commit_point_ordering",
                f"tx {tx.id} restarted after its commit point "
                f"(installed writes can no longer abort)",
                tx=tx.id,
            )
        self._phase[tx.id] = _LIMBO
        self._active -= 1
        self._limbo += 1
        self._commit_point.discard(tx.id)
        # An aborting attempt discards its prepare window (the commit
        # protocol's abort hook); the next attempt prepares afresh.
        self._prepares.pop(tx.id, None)
        self._votes.pop(tx.id, None)
        self._release_locks(tx.id)
        self._check_conservation(time)

    def _on_complete(self, time, fields):
        self._tick(time)
        tx = fields["tx"]
        self._settle_grants(time, tx.id, TX_COMPLETE)
        self._blocked.discard(tx.id)
        phase = self._phase.get(tx.id)
        if phase != _ACTIVE:
            self._violate(
                time, "conservation",
                f"commit of tx {tx.id} in phase {phase!r} "
                f"(expected 'active')",
                tx=tx.id, phase=phase, event=TX_COMPLETE,
            )
            return
        if tx.id not in self._commit_point:
            self._violate(
                time, "commit_point_ordering",
                f"tx {tx.id} committed without a commit point",
                tx=tx.id,
            )
        if tx.id in self._prepares:
            self._violate(
                time, "2pc_quorum",
                f"tx {tx.id} completed with an undecided prepare window "
                f"({sorted(self._prepares[tx.id])} prepared, no commit "
                f"decision recorded)",
                tx=tx.id, prepared=sorted(self._prepares[tx.id]),
            )
            del self._prepares[tx.id]
        self._votes.pop(tx.id, None)
        # Committed transactions leave the automaton entirely, which
        # bounds the checker's memory over arbitrarily long runs.
        del self._phase[tx.id]
        self._commit_point.discard(tx.id)
        self._active -= 1
        self._committed += 1
        cls = self._routing_class(tx)
        committed = self._class_committed.get(cls, 0) + 1
        self._class_committed[cls] = committed
        # Per-class flow balance: completions of a routing class never
        # exceed its submissions (the classwise refinement of the
        # global conservation identity, valid under re-entry because a
        # re-entry is a fresh submission of the same class).
        if committed > self._class_submitted.get(cls, 0):
            self._violate(
                time, "flow_balance",
                f"class {cls!r} completed {committed} transactions but "
                f"submitted only {self._class_submitted.get(cls, 0)}",
                tx=tx.id, routing_class=cls, committed=committed,
                submitted=self._class_submitted.get(cls, 0),
            )
        self._release_locks(tx.id)
        self._check_conservation(time)

    def _check_conservation(self, time):
        """started == committed + ready + active + restarted-in-flight."""
        balance = self._committed + self._ready + self._active + self._limbo
        if (self._submitted != balance
                or self._ready < 0 or self._active < 0 or self._limbo < 0):
            self._violate(
                time, "conservation",
                f"{self._submitted} submitted != {self._committed} "
                f"committed + {self._ready} ready + {self._active} "
                f"active + {self._limbo} in restart limbo",
                submitted=self._submitted, committed=self._committed,
                ready=self._ready, active=self._active, limbo=self._limbo,
            )

    # -- physical resources --------------------------------------------------

    def _resource_capacity(self, fields):
        """Capacity of the pool an event's server belongs to."""
        model = self._model
        if model is None:
            return float("inf")
        physical = getattr(model, "physical", None)
        if physical is None:
            return float("inf")
        if fields.get("resource") == "cpu":
            node = fields.get("node")
            if node is not None:
                capacity_at = getattr(physical, "cpu_capacity_at", None)
                if capacity_at is not None:
                    return capacity_at(node)
            return getattr(physical.cpu, "capacity", float("inf"))
        disk = fields.get("disk")
        if disk is None:
            return float("inf")
        try:
            return getattr(
                physical.disks[disk], "capacity", float("inf")
            )
        except (IndexError, TypeError):
            return float("inf")

    @staticmethod
    def _resource_key(fields):
        resource = fields.get("resource")
        disk = fields.get("disk")
        node = fields.get("node")
        if node is not None:
            # Multi-site models serve CPU from per-node pools; the
            # pairing ledger must not conflate distinct nodes' servers.
            return (resource, "node", node)
        return resource if disk is None else (resource, disk)

    def _on_resource_busy(self, time, fields):
        self._tick(time)
        key = self._resource_key(fields)
        busy = self._busy.get(key, 0) + 1
        self._busy[key] = busy
        capacity = self._resource_capacity(fields)
        if busy > capacity:
            self._violate(
                time, "resource_pairing",
                f"{busy} concurrent service periods on {key!r} exceed "
                f"its capacity {capacity}",
                resource=str(key), busy=busy, capacity=capacity,
            )

    def _on_resource_idle(self, time, fields):
        self._tick(time)
        key = self._resource_key(fields)
        busy = self._busy.get(key, 0) - 1
        self._busy[key] = busy
        if busy < 0:
            self._violate(
                time, "resource_pairing",
                f"resource {key!r} went idle more times than busy",
                resource=str(key), busy=busy,
            )
            self._busy[key] = 0

    # -- lock-grant exclusivity ----------------------------------------------

    def _on_cc_grant(self, time, fields):
        self._tick(time)
        tx = fields["tx"]
        self._settle_grants(time, tx.id, CC_GRANT)
        self._blocked.discard(tx.id)
        if not self.check_locks:
            return
        obj = fields["obj"]
        entry = self._locks.get(obj)
        if entry is None:
            entry = self._locks[obj] = [None, set()]
        self._granted.setdefault(tx.id, set()).add(obj)
        writer, readers = entry
        if fields["op"] == "write":
            foreign_readers = readers - {tx.id}
            if writer is not None and writer != tx.id:
                self._conflicting_grant(
                    time, (writer,),
                    f"write on {obj!r} granted to tx {tx.id} while tx "
                    f"{writer} holds a write grant",
                    obj=obj, tx=tx.id, holder=writer,
                )
            elif foreign_readers:
                self._conflicting_grant(
                    time, foreign_readers,
                    f"write on {obj!r} granted to tx {tx.id} while "
                    f"{sorted(foreign_readers)} hold read grants",
                    obj=obj, tx=tx.id,
                    holders=sorted(foreign_readers),
                )
            entry[0] = tx.id
        else:
            if writer is not None and writer != tx.id:
                self._conflicting_grant(
                    time, (writer,),
                    f"read on {obj!r} granted to tx {tx.id} while tx "
                    f"{writer} holds a write grant",
                    obj=obj, tx=tx.id, holder=writer,
                )
            readers.add(tx.id)

    def _conflicting_grant(self, time, conflicting, message, **details):
        """A grant that conflicts with the grants of ``conflicting``.

        Blocking releases a deadlock victim's locks when it picks the
        victim, so a waiter can be granted at that instant before the
        victim's ``restart`` event reaches this checker. A grant whose
        conflicting holders are all blocked therefore stays pending;
        it is a violation unless each holder's next lifecycle event is
        a restart at the same instant (see :meth:`_settle_grants`).
        """
        if not self._blocked.issuperset(conflicting):
            self._violate(time, "lock_exclusivity", message, **details)
            return
        for holder in conflicting:
            self._pending_grants.setdefault(holder, []).append(
                (time, message, details)
            )

    def _settle_grants(self, time, tx_id, kind):
        """Judge the grants pending on ``tx_id`` by its next event."""
        grants = self._pending_grants.pop(tx_id, None)
        if grants is None:
            return
        for grant_time, message, details in grants:
            if kind != TX_RESTART or time != grant_time:
                self._violate(
                    time, "lock_exclusivity",
                    f"{message}, and blocked holder tx {tx_id} then "
                    f"had a {kind} event, not a restart at "
                    f"t={grant_time:.6g}",
                    **details,
                )

    def _release_locks(self, tx_id):
        """Strict 2PL: commit/abort releases everything a tx held."""
        for obj in self._granted.pop(tx_id, ()):
            entry = self._locks.get(obj)
            if entry is None:
                continue  # a conflicting grant replaced ours, then freed it
            if entry[0] == tx_id:
                entry[0] = None
            entry[1].discard(tx_id)
            if entry[0] is None and not entry[1]:
                del self._locks[obj]

    # -- network messages and two-phase commit -------------------------------

    def _on_msg_send(self, time, fields):
        self._tick(time)
        self._msgs_sent += 1

    def _on_msg_recv(self, time, fields):
        self._tick(time)
        self._msgs_received += 1
        if self._msgs_received > self._msgs_sent:
            self._violate(
                time, "message_pairing",
                f"{self._msgs_received} deliveries exceed "
                f"{self._msgs_sent} sends",
                received=self._msgs_received, sent=self._msgs_sent,
            )

    def _on_2pc_prepare(self, time, fields):
        self._tick(time)
        tx = fields["tx"]
        node = fields["node"]
        prepared = self._prepares.setdefault(tx.id, set())
        if node in prepared:
            self._violate(
                time, "2pc_quorum",
                f"tx {tx.id} sent a second prepare to node {node} in "
                f"one commit attempt",
                tx=tx.id, node=node,
            )
        prepared.add(node)

    def _on_2pc_vote(self, time, fields):
        self._tick(time)
        tx = fields["tx"]
        node = fields["node"]
        if node not in self._prepares.get(tx.id, ()):
            self._violate(
                time, "2pc_quorum",
                f"node {node} voted on tx {tx.id} without an "
                f"outstanding prepare",
                tx=tx.id, node=node,
            )
            return
        self._votes.setdefault(tx.id, set()).add(node)

    def _on_2pc_decide(self, time, fields):
        self._tick(time)
        tx = fields["tx"]
        prepared = self._prepares.pop(tx.id, set())
        votes = self._votes.pop(tx.id, set())
        unvoted = prepared - votes
        if unvoted:
            self._violate(
                time, "2pc_quorum",
                f"commit decision for tx {tx.id} without votes from "
                f"prepared nodes {sorted(unvoted)}",
                tx=tx.id, unvoted=sorted(unvoted),
            )
        quorum = fields.get("quorum")
        if quorum is not None and quorum != len(prepared):
            self._violate(
                time, "2pc_quorum",
                f"decision quorum {quorum} for tx {tx.id} does not "
                f"match its {len(prepared)} prepared participants",
                tx=tx.id, quorum=quorum, prepared=sorted(prepared),
            )

    # -- reporting -----------------------------------------------------------

    @property
    def violation_count(self):
        return len(self.violations) + self.suppressed

    def report(self):
        """JSON-serializable summary for ``result.diagnostics``."""
        payload = {
            "mode": self.mode,
            "events_checked": self.events_checked,
            "violations": [v.to_dict() for v in self.violations],
            "suppressed": self.suppressed,
        }
        if self._msgs_sent:
            payload["messages"] = {
                "sent": self._msgs_sent,
                "received": self._msgs_received,
            }
        if self._reentries:
            payload["reentries"] = self._reentries
            payload["flow"] = {
                cls: {
                    "submitted": self._class_submitted.get(cls, 0),
                    "completed": self._class_committed.get(cls, 0),
                }
                for cls in sorted(self._class_submitted)
            }
        return payload

    def __repr__(self):
        return (
            f"<InvariantChecker mode={self.mode} "
            f"events={self.events_checked} "
            f"violations={self.violation_count}>"
        )

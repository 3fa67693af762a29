"""The paper's Blocking algorithm: dynamic two-phase locking.

Transactions set read locks on objects they read and upgrade them to
write locks for objects they also write. A denied request blocks the
requester. Deadlock detection runs on every block over a waits-for graph;
the youngest transaction in the cycle is restarted (with no restart
delay — the same deadlock cannot arise again). Locks are released
together at end-of-transaction, after the deferred updates.
"""

from repro.cc.base import (
    DELAY_NONE,
    INSTALL_AT_FINALIZE,
    ConcurrencyControl,
    cc_units_written,
)
from repro.cc.errors import REASON_DEADLOCK, RestartTransaction
from repro.cc.locks import LockManager, LockMode
from repro.cc.waits_for import (
    build_waits_for,
    find_any_cycle,
    find_deadlock,
    youngest,
)


#: Deadlock-victim selection policies. The paper restarts the youngest
#: transaction in the cycle; the alternatives exist for ablation studies.
VICTIM_YOUNGEST = "youngest"
VICTIM_OLDEST = "oldest"
VICTIM_REQUESTER = "requester"

_VICTIM_POLICIES = (VICTIM_YOUNGEST, VICTIM_OLDEST, VICTIM_REQUESTER)

#: When deadlock detection runs. The paper detects "each time a
#: transaction blocks"; periodic detection (a cheaper choice some real
#: systems make) lets deadlocked transactions sit until the next scan.
DETECT_ON_BLOCK = "on_block"
DETECT_PERIODIC = "periodic"

_DETECTION_MODES = (DETECT_ON_BLOCK, DETECT_PERIODIC)

#: Write-lock acquisition policies. The paper's locking algorithms set
#: read locks first and upgrade later; since the model's transactions
#: know their write sets up front (the simulator replays fixed sets),
#: an implementation may instead take the exclusive lock at first read
#: of a to-be-written object, eliminating upgrade-upgrade deadlocks at
#: the cost of earlier, longer exclusive holds.
UPGRADE_LOCKS = "upgrade"
IMMEDIATE_EXCLUSIVE = "immediate_exclusive"

_WRITE_LOCK_POLICIES = (UPGRADE_LOCKS, IMMEDIATE_EXCLUSIVE)


class BlockingCC(ConcurrencyControl):
    """Dynamic 2PL: conflicts block; deadlocks restart the youngest."""

    name = "blocking"
    default_restart_delay = DELAY_NONE
    install_at = INSTALL_AT_FINALIZE

    def __init__(self, victim_policy=VICTIM_YOUNGEST,
                 detection_mode=DETECT_ON_BLOCK,
                 detection_interval=1.0,
                 write_lock_policy=UPGRADE_LOCKS):
        super().__init__()
        if victim_policy not in _VICTIM_POLICIES:
            raise ValueError(
                f"victim_policy must be one of {_VICTIM_POLICIES}, "
                f"got {victim_policy!r}"
            )
        if write_lock_policy not in _WRITE_LOCK_POLICIES:
            raise ValueError(
                f"write_lock_policy must be one of "
                f"{_WRITE_LOCK_POLICIES}, got {write_lock_policy!r}"
            )
        self.write_lock_policy = write_lock_policy
        if detection_mode not in _DETECTION_MODES:
            raise ValueError(
                f"detection_mode must be one of {_DETECTION_MODES}, "
                f"got {detection_mode!r}"
            )
        if detection_interval <= 0.0:
            raise ValueError(
                f"detection_interval must be > 0, got {detection_interval}"
            )
        self.victim_policy = victim_policy
        self.detection_mode = detection_mode
        self.detection_interval = detection_interval
        self.locks = None
        self.deadlocks_found = 0

    def attach(self, env, hooks=None):
        super().attach(env, hooks)
        self.locks = LockManager(env)
        if self.detection_mode == DETECT_PERIODIC:
            env.process(self._periodic_detector())
        return self

    def _periodic_detector(self):
        """Scan the waits-for graph every ``detection_interval``.

        Victimizes until the graph is acyclic. Between scans,
        deadlocked transactions simply sit blocked — the cost of the
        cheaper detection policy.
        """
        while True:
            yield self.env.timeout(self.detection_interval)
            while True:
                graph = build_waits_for(self.locks)
                cycle = find_any_cycle(graph)
                if cycle is None:
                    break
                self.deadlocks_found += 1
                victim = self._choose_victim(cycle[0], cycle)
                self._victimize(
                    victim,
                    RestartTransaction(
                        REASON_DEADLOCK,
                        f"periodic scan broke a cycle of {len(cycle)}",
                    ),
                )

    # -- lock requests -----------------------------------------------------

    def read_request(self, tx, obj):
        if (self.write_lock_policy == IMMEDIATE_EXCLUSIVE
                and obj in cc_units_written(tx)):
            return self._locked_request(tx, obj, LockMode.EXCLUSIVE)
        return self._locked_request(tx, obj, LockMode.SHARED)

    def write_request(self, tx, obj):
        return self._locked_request(tx, obj, LockMode.EXCLUSIVE)

    def _locked_request(self, tx, obj, mode):
        result = self.locks.acquire(tx, obj, mode, wait=True)
        if result.granted:
            return None
        self.hooks.count_block(tx)
        if self.detection_mode == DETECT_ON_BLOCK:
            self._resolve_deadlocks(tx)
        # If the requester itself was victimized, _resolve_deadlocks raised
        # and we never get here. Otherwise wait for the grant; the event
        # fails with RestartTransaction if a later detection victimizes us.
        tx.lock_wait_event = result.event
        return result.event

    # -- deadlock handling ---------------------------------------------------

    def _resolve_deadlocks(self, requester):
        """Break every cycle through ``requester``, youngest victim first."""
        while True:
            cycle = find_deadlock(self.locks, requester)
            if cycle is None:
                return
            self.deadlocks_found += 1
            victim = self._choose_victim(requester, cycle)
            error = RestartTransaction(
                REASON_DEADLOCK,
                f"victim of cycle of {len(cycle)} transactions",
            )
            if victim is requester:
                # Abort ourselves synchronously; engine cleanup (abort())
                # removes our queued request and releases our locks.
                raise error
            self._victimize(victim, error)

    def _choose_victim(self, requester, cycle):
        if self.victim_policy == VICTIM_YOUNGEST:
            return youngest(cycle)
        if self.victim_policy == VICTIM_OLDEST:
            return min(
                cycle, key=lambda tx: (tx.first_submit_time, tx.id)
            )
        return requester

    def _victimize(self, victim, error):
        """Deliver a restart to a blocked victim.

        Every member of a waits-for cycle is blocked on a lock event, so
        failing that event resumes the victim's process with the error.
        Its engine-side handler then calls :meth:`abort`, which releases
        the victim's locks and unblocks the rest of the cycle.
        """
        event = getattr(victim, "lock_wait_event", None)
        if event is None or event.triggered:
            raise AssertionError(
                f"deadlock victim {victim!r} is not blocked on a lock"
            )
        event.fail(error)
        # Remove the victim's queued request right away so that waits-for
        # graphs built before its abort runs do not still see it.
        self.locks.release_all(victim)

    # -- completion ----------------------------------------------------------

    def finalize_commit(self, tx):
        tx.lock_wait_event = None
        self.locks.release_all(tx)

    def abort(self, tx):
        tx.lock_wait_event = None
        self.locks.release_all(tx)

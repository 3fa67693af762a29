"""A shared/exclusive lock manager with upgrades and FCFS queueing.

Semantics (classical System R-style, as assumed by the paper):

* Shared (read) locks are compatible with each other; exclusive (write)
  locks are compatible with nothing.
* Transactions read-lock objects they read and later *upgrade* to an
  exclusive lock for objects they also write.
* Grant order is FCFS, except that upgrade requests queue ahead of
  ordinary requests (they already hold the object in shared mode).
* A new request is granted only if it is compatible with all holders AND
  no request is already queued (no overtaking), except that an upgrade by
  the sole holder is granted immediately.

The lock manager is policy-free: it never decides to block or restart.
Algorithms call :meth:`acquire` with ``wait=True`` (blocking 2PL variants)
or ``wait=False`` (immediate-restart), ask :meth:`waits_for` for a
transaction's waits-for edges, and fail a victim's wait event to abort
it remotely.

Besides the per-object table, the manager indexes each transaction's
objects (held or queued on) and its queued requests, so that commit,
abort and deadlock detection cost one transaction's footprint rather
than the size of the table.
"""

from collections import defaultdict, deque
from enum import IntEnum
from itertools import count


class LockMode(IntEnum):
    SHARED = 0
    EXCLUSIVE = 1


def compatible(mode_a, mode_b):
    """Two lock modes can be held on one object simultaneously."""
    return mode_a is LockMode.SHARED and mode_b is LockMode.SHARED


class LockRequest:
    """A queued (not yet granted) lock request."""

    __slots__ = ("tx", "obj", "mode", "event", "is_upgrade")

    def __init__(self, tx, obj, mode, event, is_upgrade):
        self.tx = tx
        self.obj = obj
        self.mode = mode
        self.event = event
        self.is_upgrade = is_upgrade

    @property
    def is_dead(self):
        """True if the wait event already fired (granted or victimized)."""
        return self.event.triggered

    def __repr__(self):
        kind = "upgrade" if self.is_upgrade else self.mode.name.lower()
        return f"<LockRequest tx={self.tx!r} obj={self.obj} {kind}>"


class _Lock:
    """Per-object lock state: current holders and the waiter queue.

    ``seq`` numbers entries in creation order. The table drops an entry
    when it goes idle and appends a fresh one on the object's next
    request, so ascending ``seq`` is exactly the table's iteration order.
    """

    __slots__ = ("holders", "queue", "seq")

    def __init__(self, seq):
        self.holders = {}  # tx -> LockMode
        self.queue = deque()  # of LockRequest
        self.seq = seq

    @property
    def is_idle(self):
        return not self.holders and not self.queue


class AcquireResult:
    """Outcome of :meth:`LockManager.acquire`.

    ``granted`` — the lock is held; ``event`` is None.
    Not granted with ``wait=True`` — ``event`` fires when granted (or
    fails with :class:`RestartTransaction` if the waiter is victimized).
    Not granted with ``wait=False`` — nothing was queued.
    """

    __slots__ = ("granted", "event", "request")

    def __init__(self, granted, event=None, request=None):
        self.granted = granted
        self.event = event
        self.request = request


class LockManager:
    """Lock table over an object-identifier space."""

    def __init__(self, env):
        self.env = env
        self._locks = {}  # obj -> _Lock
        self._next_seq = count().__next__
        # tx -> objects it holds or has queued on (possibly stale: an
        # object it merely left a dead request on); dropped at release.
        self._objects = defaultdict(set)
        # tx -> its queued requests not yet granted or released.
        self._requests = defaultdict(list)

    def _table_order(self, objs):
        """``objs`` still in the table, in the table's iteration order."""
        locks = self._locks
        return sorted(
            (obj for obj in objs if obj in locks),
            key=lambda obj: locks[obj].seq,
        )

    # -- queries --------------------------------------------------------

    def mode_held(self, tx, obj):
        """The mode ``tx`` holds on ``obj`` (None if not a holder)."""
        lock = self._locks.get(obj)
        if lock is None:
            return None
        return lock.holders.get(tx)

    def holders(self, obj):
        """Mapping of holder transaction -> mode for ``obj``."""
        lock = self._locks.get(obj)
        if lock is None:
            return {}
        return dict(lock.holders)

    def queued_requests(self, obj):
        lock = self._locks.get(obj)
        if lock is None:
            return []
        return [r for r in lock.queue if not r.is_dead]

    def all_blocked_requests(self):
        """Every live queued request, in table then queue order."""
        locks = self._locks
        live = [
            request
            for requests in self._requests.values()
            for request in requests
            if not request.is_dead
        ]
        live.sort(key=lambda request: (
            locks[request.obj].seq, locks[request.obj].queue.index(request)
        ))
        return live

    def locks_held_by(self, tx):
        """Objects currently locked by ``tx`` (any mode)."""
        locks = self._locks
        return [
            obj for obj in self._table_order(self._objects.get(tx, ()))
            if tx in locks[obj].holders
        ]

    def would_conflict_with(self, tx, obj, mode):
        """Transactions a new request by ``tx`` would wait for, without
        enqueueing anything.

        Used by timestamp-priority algorithms (wound-wait, wait-die) to
        decide wound/wait/die before committing to a queue position:
        incompatible holders plus already-queued incompatible requests
        (which would be granted first under FCFS). An upgrade conflicts
        exactly with the other current holders.
        """
        lock = self._locks.get(obj)
        if lock is None:
            return set()
        held = lock.holders.get(tx)
        if held is not None and held >= mode:
            return set()
        if held is LockMode.SHARED and mode is LockMode.EXCLUSIVE:
            return {h for h in lock.holders if h is not tx}
        conflicts = {
            holder
            for holder, holder_mode in lock.holders.items()
            if holder is not tx and not compatible(mode, holder_mode)
        }
        for queued in lock.queue:
            if queued.is_dead or queued.tx is tx:
                continue
            if not compatible(mode, queued.mode):
                conflicts.add(queued.tx)
        return conflicts

    # -- acquisition ----------------------------------------------------

    def acquire(self, tx, obj, mode, wait=True):
        """Try to lock ``obj`` in ``mode`` for ``tx``.

        Re-requesting a mode already covered by the held mode is a no-op
        grant. Requesting EXCLUSIVE while holding SHARED is an upgrade.
        """
        lock = self._locks.get(obj)
        if lock is None:
            lock = self._locks[obj] = _Lock(self._next_seq())
        held = lock.holders.get(tx)
        if held is not None and held >= mode:
            return AcquireResult(granted=True)

        is_upgrade = held is LockMode.SHARED and mode is LockMode.EXCLUSIVE
        if self._grantable(lock, tx, mode, is_upgrade):
            lock.holders[tx] = mode
            self._objects[tx].add(obj)
            return AcquireResult(granted=True)

        if not wait:
            return AcquireResult(granted=False)

        event = self.env.event()
        request = LockRequest(tx, obj, mode, event, is_upgrade)
        if is_upgrade:
            self._enqueue_upgrade(lock, request)
        else:
            lock.queue.append(request)
        self._objects[tx].add(obj)
        self._requests[tx].append(request)
        return AcquireResult(granted=False, event=event, request=request)

    def _grantable(self, lock, tx, mode, is_upgrade):
        if is_upgrade:
            # The sole holder may upgrade in place regardless of the queue:
            # queued waiters do not hold the object.
            return set(lock.holders) == {tx}
        if lock.queue:
            return False  # no overtaking queued waiters
        # Open-coded compatibility: EXCLUSIVE conflicts with any holder,
        # SHARED only with an EXCLUSIVE holder. Equivalent to
        # ``all(compatible(mode, held) ...)`` without a call per holder
        # on the grant fast path.
        holders = lock.holders
        if not holders:
            return True
        if mode is LockMode.EXCLUSIVE:
            return False
        return LockMode.EXCLUSIVE not in holders.values()

    @staticmethod
    def _enqueue_upgrade(lock, request):
        """Place an upgrade after existing upgrades but before others."""
        position = 0
        for queued in lock.queue:
            if not queued.is_upgrade:
                break
            position += 1
        lock.queue.insert(position, request)

    # -- waits-for support ------------------------------------------------

    def waits_for(self, tx):
        """Transactions ``tx`` waits for: its waits-for edges.

        The union of :meth:`blockers` over ``tx``'s live queued
        requests; empty when it waits for nobody.
        """
        requests = self._requests.get(tx)
        if not requests:
            return set()
        if len(requests) == 1:
            # The common case: a blocked transaction waits on one
            # request at a time.
            request = requests[0]
            if request.is_dead:
                return set()
            return self.blockers(request)
        edges = set()
        for request in requests:
            if not request.is_dead:
                edges |= self.blockers(request)
        return edges

    def blockers(self, request):
        """Transactions ``request.tx`` is waiting for.

        Incompatible current holders, plus transactions queued ahead with
        an incompatible requested mode (they will be granted first under
        FCFS, so the requester transitively waits for them).

        Compatibility is open-coded as in :meth:`_grantable`: an
        EXCLUSIVE request conflicts with every other holder and queued
        request, a SHARED one only with EXCLUSIVE ones.
        """
        lock = self._locks.get(request.obj)
        if lock is None:
            return set()
        tx = request.tx
        exclusive = request.mode is LockMode.EXCLUSIVE
        if exclusive:
            waiting_for = {
                holder for holder in lock.holders if holder is not tx
            }
        else:
            waiting_for = {
                holder
                for holder, held in lock.holders.items()
                if held is LockMode.EXCLUSIVE and holder is not tx
            }
        for queued in lock.queue:
            if queued is request:
                break
            if queued.tx is tx or queued.is_dead:
                continue
            if exclusive or queued.mode is LockMode.EXCLUSIVE:
                waiting_for.add(queued.tx)
        return waiting_for

    # -- release ----------------------------------------------------------

    def release_all(self, tx):
        """Drop every hold and queued request of ``tx``; grant waiters.

        Used at commit (release together at end-of-transaction) and at
        abort. Queued requests of ``tx`` whose event has not fired are
        silently discarded — the caller guarantees nothing waits on them
        anymore (the aborting process was already resumed by exception).

        Only ``tx``'s own objects are visited. Their waiters are granted
        in table order, the order a scan of the whole table would meet
        them, so grant events are scheduled exactly as such a scan
        would schedule them. Returns the objects ``tx`` left, in that
        order; those nobody holds or waits on any more are dropped.
        """
        self._requests.pop(tx, None)
        locks = self._locks
        touched = []
        for obj in self._table_order(self._objects.pop(tx, ())):
            lock = locks[obj]
            changed = lock.holders.pop(tx, None) is not None
            queue = lock.queue
            if queue and any(r.tx is tx for r in queue):
                lock.queue = deque(r for r in queue if r.tx is not tx)
                changed = True
            if changed:
                touched.append(obj)
                self._grant_waiters(lock)
                if lock.is_idle:
                    del locks[obj]
        return touched

    def _grant_waiters(self, lock):
        while lock.queue:
            head = lock.queue[0]
            if head.is_dead:
                lock.queue.popleft()
                continue
            if head.is_upgrade:
                if set(lock.holders) != {head.tx}:
                    break
            elif lock.holders and not all(
                compatible(head.mode, held)
                for held in lock.holders.values()
            ):
                break
            lock.queue.popleft()
            lock.holders[head.tx] = head.mode
            self._granted(head)
            head.event.succeed()

    def _granted(self, request):
        """Drop a granted request from its transaction's index."""
        requests = self._requests[request.tx]
        requests.remove(request)
        if not requests:
            del self._requests[request.tx]

    def __repr__(self):
        held = sum(len(lock.holders) for lock in self._locks.values())
        queued = sum(len(lock.queue) for lock in self._locks.values())
        return f"<LockManager holds={held} queued={queued}>"

"""Shared resources: multi-server pools with FCFS/priority queueing.

These map directly onto the paper's physical queuing model: the CPU pool is
one :class:`Resource` with ``capacity = num_cpus`` and a single global queue
(concurrency-control requests enter with a higher priority class); each disk
is a ``capacity=1`` :class:`Resource` with its own queue.

A CPU or disk leg is :meth:`Resource.serve`: the pool starts the service
when it assigns a server and schedules its completion itself, so a leg
is one kernel event and one process wake-up. Starting and ending a leg
are one call each (``serve``, ``finish``): the busy tracker's integral,
the watch and the completion's heap entry are handled in line there.
"""

from heapq import heapify, heappop, heappush
from itertools import count

from repro.des.events import NORMAL, PENDING, Event

_new = object.__new__


class Service(Event):
    """``delay`` of service on one server; fires when it completes.

    Made only by a pool's ``serve`` and ended by its ``finish``, which
    must run even if the waiting process is interrupted::

        service = pool.serve(0.035, tracker=disk_tracker)
        try:
            yield service
        finally:
            consumed = pool.finish(service)

    The service starts when it gets a server: ``start`` records the
    instant, the optional ``tracker`` (a :class:`~repro.des.BusyTracker`)
    counts one more busy server, ``watch.started()`` runs if a ``watch``
    is given (its ``ended()`` runs at ``finish``; a false ``watch``
    means none), and the completion is scheduled. ``start`` stays None
    while the service queues. ``_closed`` is set by the first
    ``finish``: the service ended, or was withdrawn from the queue.
    """

    __slots__ = ("delay", "tracker", "watch", "start", "_closed")

    def _unhook(self):
        # The tracker and the watch lead back to the environment too.
        Event._unhook(self)
        self.tracker = self.watch = None


def _backwards(now, last):
    return ValueError(f"time went backwards: {now} < {last}")


class Resource:
    """A pool of ``capacity`` identical servers with one queue.

    Queued services are started in (priority, arrival) order: lower
    ``priority`` values are served first; ties are FCFS. This implements
    both plain FCFS (all priorities equal) and the paper's rule that
    concurrency-control requests have priority over other CPU requests.

    Withdrawing a queued service (``finish`` before it started) uses
    *lazy deletion*: the service is tombstoned in place and skipped when
    it reaches the heap top, instead of the O(n) scan plus full
    re-``heapify`` an eager removal would cost. Interrupt-heavy
    workloads (wound-wait aborts, fault injection) withdraw constantly,
    so this keeps them O(log n) per operation. ``_live`` counts the
    non-withdrawn queued services; when tombstones dominate a large
    queue it is compacted, which bounds memory without changing start
    order (the heap is rebuilt from the same (priority, arrival) keys).
    """

    #: Compact the heap when it holds at least this many entries and
    #: more than half of them are tombstones.
    _COMPACT_MIN = 64

    __slots__ = ("env", "capacity", "_in_use", "_queue", "_order", "_live")

    def __init__(self, env, capacity=1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._queue = []
        self._order = count().__next__
        self._live = 0

    @property
    def in_use(self):
        """Number of servers currently running a service."""
        return self._in_use

    @property
    def queue_length(self):
        """Number of services waiting for a server (tombstones excluded)."""
        return self._live

    def serve(self, delay, priority=0, tracker=None, watch=None):
        """A :class:`Service` of ``delay``, started now if a server is free.

        Otherwise it queues and starts when a ``finish`` frees a server.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        env = self.env
        service = _new(Service)
        service.env = env
        service.callbacks = []
        service._defused = False
        service.delay = delay
        service.tracker = tracker
        service.watch = watch
        service._closed = False
        if self._live or self._in_use >= self.capacity:
            service.start = None
            service._ok = None
            service._value = PENDING
            heappush(self._queue, (priority, self._order(), service))
            self._live += 1
            return service
        # Start it: the same steps as _grant_next and
        # InfiniteResource.serve.
        self._in_use += 1
        now = env._now
        service.start = now
        if tracker is not None:
            last = tracker._last
            if now < last:
                raise _backwards(now, last)
            tracker._area += tracker._level * (now - last)
            tracker._last = now
            tracker._level += 1
        if watch:
            watch.started()
        service._ok = True
        service._value = None
        heappush(env._queue, (now + delay, NORMAL, env._eid(), service))
        return service

    def finish(self, service):
        """End ``service``; the service time it consumed (idempotent).

        A running service frees its server for the next queued service
        at once; if its completion is still queued and nobody waits on
        it, the completion is withdrawn (the run loop discards it
        without advancing the clock). A queued service is withdrawn,
        having consumed 0.0.
        """
        if service._closed:
            return 0.0
        service._closed = True
        start = service.start
        if start is None:
            self._withdraw()
            return 0.0
        self._in_use -= 1
        now = self.env._now
        tracker = service.tracker
        if tracker is not None:
            last = tracker._last
            if now < last:
                raise _backwards(now, last)
            tracker._area += tracker._level * (now - last)
            tracker._last = now
            tracker._level -= 1
        if service.watch:
            service.watch.ended()
        if not service.callbacks:
            service.callbacks = None
        if self._queue:
            self._grant_next()
        return now - start

    def _withdraw(self):
        # The service just closed is queued: it stays in the heap as a
        # tombstone, which _grant_next skips.
        self._live -= 1
        queued = len(self._queue)
        if queued >= self._COMPACT_MIN and self._live * 2 < queued:
            self._compact()

    def _compact(self):
        # Dropping tombstones and re-heapifying preserves start order:
        # starts pop by the total order (priority, arrival), which does
        # not depend on the heap's internal layout.
        self._queue = [
            entry for entry in self._queue if not entry[2]._closed
        ]
        heapify(self._queue)

    def _grant_next(self):
        queue = self._queue
        capacity = self.capacity
        env = self.env
        now = env._now
        heap = env._queue
        while queue and self._in_use < capacity:
            service = heappop(queue)[2]
            if service._closed:
                continue  # tombstone: withdrawn while queued
            self._live -= 1
            # Start it, as serve does.
            self._in_use += 1
            service.start = now
            tracker = service.tracker
            if tracker is not None:
                last = tracker._last
                if now < last:
                    raise _backwards(now, last)
                tracker._area += tracker._level * (now - last)
                tracker._last = now
                tracker._level += 1
            if service.watch:
                service.watch.started()
            service._ok = True
            service._value = None
            heappush(heap, (now + service.delay, NORMAL, env._eid(), service))


class InfiniteResource(Resource):
    """A resource with unbounded servers: every service starts at once.

    Models the paper's "infinite resources" assumption — transactions
    never wait for CPU or I/O service. Nothing ever queues, so the pool
    keeps no queue: ``in_use`` is a count of running services, and
    ``serve``/``finish`` skip every queue test.
    """

    __slots__ = ()

    def __init__(self, env):
        self.env = env
        self.capacity = float("inf")
        self._in_use = 0
        self._live = 0

    def serve(self, delay, priority=0, tracker=None, watch=None):
        """A :class:`Service` of ``delay``, started now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        env = self.env
        service = _new(Service)
        service.env = env
        service.callbacks = []
        service._defused = False
        service.delay = delay
        service.tracker = tracker
        service.watch = watch
        service._closed = False
        # Start it, as Resource.serve does.
        self._in_use += 1
        now = env._now
        service.start = now
        if tracker is not None:
            last = tracker._last
            if now < last:
                raise _backwards(now, last)
            tracker._area += tracker._level * (now - last)
            tracker._last = now
            tracker._level += 1
        if watch:
            watch.started()
        service._ok = True
        service._value = None
        heappush(env._queue, (now + delay, NORMAL, env._eid(), service))
        return service

    def finish(self, service):
        """End ``service``; the service time it consumed (idempotent)."""
        if service._closed:
            return 0.0
        service._closed = True
        self._in_use -= 1
        now = self.env._now
        tracker = service.tracker
        if tracker is not None:
            last = tracker._last
            if now < last:
                raise _backwards(now, last)
            tracker._area += tracker._level * (now - last)
            tracker._last = now
            tracker._level -= 1
        if service.watch:
            service.watch.ended()
        if not service.callbacks:
            service.callbacks = None
        return now - service.start

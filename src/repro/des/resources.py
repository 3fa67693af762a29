"""Shared resources: multi-server pools with FCFS/priority queueing.

These map directly onto the paper's physical queuing model: the CPU pool is
one :class:`Resource` with ``capacity = num_cpus`` and a single global queue
(concurrency-control requests enter with a higher priority class); each disk
is a ``capacity=1`` :class:`Resource` with its own queue.

A CPU or disk leg is :meth:`Resource.serve`: the pool starts the service
when it assigns a server and schedules its completion itself, so a leg
is one kernel event and one process wake-up. :meth:`Resource.request`
is the open-ended claim (held until released), queued in the same order.
"""

from heapq import heapify, heappop, heappush
from itertools import count

from repro.des.events import NORMAL, PENDING, Event


class Request(Event):
    """A pending claim on a resource; fires when the claim is granted.

    Supports the context-manager idiom so releases cannot be leaked::

        with resource.request() as req:
            yield req
            yield env.timeout(service_time)
        # released here, even if the process is interrupted
    """

    __slots__ = ("resource", "priority", "_withdrawn")

    def __init__(self, resource, priority=0):
        # Assign every field directly rather than paying for the
        # Event.__init__ call (same fields, same values).
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.resource = resource
        self.priority = priority
        self._withdrawn = False

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.resource.release(self)
        return False

    def cancel(self):
        """Withdraw an ungranted request (alias for release)."""
        self.resource.release(self)

    def _grant(self):
        # Event.succeed(self) without the already-triggered check: the
        # pool grants only pending claims.
        self._ok = True
        self._value = self
        self.env.schedule(self, NORMAL)


class Service(Event):
    """``delay`` of service on one server; fires when it completes.

    Made by a pool's ``serve`` and ended by its ``finish``, which must
    run even if the waiting process is interrupted::

        service = pool.serve(0.035, tracker=disk_tracker)
        try:
            yield service
        finally:
            consumed = pool.finish(service)

    The service starts when it gets a server: ``start`` records the
    instant, the optional ``tracker`` (a :class:`~repro.des.BusyTracker`)
    is acquired, ``watch.started()`` runs if a ``watch`` is given (its
    ``ended()`` runs at ``finish``; a false ``watch`` means none), and
    the completion is scheduled.
    """

    __slots__ = ("delay", "tracker", "watch", "start", "_withdrawn")

    def __init__(self, env, delay, tracker, watch):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.delay = delay
        self.tracker = tracker
        self.watch = watch
        self.start = None
        self._withdrawn = False

    def _grant(self):
        env = self.env
        self.start = env._now
        if self.tracker is not None:
            self.tracker.acquire()
        if self.watch:
            self.watch.started()
        self._ok = True
        self._value = None
        env.schedule(self, NORMAL, self.delay)

    def _end(self):
        # Close _grant's bookkeeping; the service time consumed.
        if self.tracker is not None:
            self.tracker.release()
        if self.watch:
            self.watch.ended()
        return self.env._now - self.start


class Resource:
    """A pool of ``capacity`` identical servers with one queue.

    Queued requests are granted in (priority, arrival) order: lower
    ``priority`` values are served first; ties are FCFS. This implements
    both plain FCFS (all priorities equal) and the paper's rule that
    concurrency-control requests have priority over other CPU requests.

    Withdrawing a queued request (``release``/``cancel`` before the grant)
    uses *lazy deletion*: the request is tombstoned in place and skipped
    when it reaches the heap top, instead of the O(n) scan plus full
    re-``heapify`` an eager removal would cost. Interrupt-heavy workloads
    (wound-wait aborts, fault injection) withdraw constantly, so this
    keeps them O(log n) per operation. ``_live`` counts the non-withdrawn
    queued requests; when tombstones dominate a large queue it is
    compacted, which bounds memory without changing grant order (the heap
    is rebuilt from the same (priority, arrival) keys).
    """

    #: Compact the heap when it holds at least this many entries and
    #: more than half of them are tombstones.
    _COMPACT_MIN = 64

    __slots__ = ("env", "capacity", "users", "_queue", "_order", "_live")

    def __init__(self, env, capacity=1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users = set()
        self._queue = []
        self._order = count().__next__
        self._live = 0

    @property
    def in_use(self):
        """Number of servers currently held."""
        return len(self.users)

    @property
    def queue_length(self):
        """Number of requests waiting for a server (tombstones excluded)."""
        return self._live

    def request(self, priority=0):
        """Claim a server; the returned event fires when one is assigned."""
        req = Request(self, priority)
        if not self._live and len(self.users) < self.capacity:
            self.users.add(req)
            req._grant()
        else:
            heappush(self._queue, (priority, self._order(), req))
            self._live += 1
        return req

    def serve(self, delay, priority=0, tracker=None, watch=None):
        """A :class:`Service` of ``delay``, started now if a server is free.

        Otherwise it queues and starts when a release frees a server.
        """
        service = Service(self.env, delay, tracker, watch)
        if not self._live and len(self.users) < self.capacity:
            self.users.add(service)
            service._grant()
        else:
            heappush(self._queue, (priority, self._order(), service))
            self._live += 1
        return service

    def finish(self, service):
        """End ``service``; the service time it consumed (idempotent).

        A running service frees its server for the next claim at once;
        if its completion is still queued and nobody waits on it, the
        completion is withdrawn (the run loop discards it without
        advancing the clock). A queued service is withdrawn, having
        consumed 0.0.
        """
        users = self.users
        if service in users:
            users.remove(service)
            consumed = service._end()
            if not service.callbacks:
                service.callbacks = None
            if self._queue:
                self._grant_next()
            return consumed
        self._discard_queued(service)
        return 0.0

    def release(self, request):
        """Return a server to the pool (or withdraw a queued request).

        Releasing is idempotent: releasing a request that is neither held
        nor queued is a no-op, which makes context-manager cleanup safe
        after an interrupt-triggered early release.
        """
        users = self.users
        if request in users:
            users.remove(request)
            self._grant_next()
        else:
            self._discard_queued(request)

    def _discard_queued(self, request):
        # Every ungranted (untriggered) request of this resource sits in
        # the queue, so a pending, not-yet-withdrawn request can be
        # tombstoned without searching for it.
        if request._withdrawn or request._value is not PENDING:
            return
        request._withdrawn = True
        self._live -= 1
        queued = len(self._queue)
        if queued >= self._COMPACT_MIN and self._live * 2 < queued:
            self._compact()

    def _compact(self):
        # Dropping tombstones and re-heapifying preserves grant order:
        # grants pop by the total order (priority, arrival), which does
        # not depend on the heap's internal layout.
        self._queue = [
            entry for entry in self._queue if not entry[2]._withdrawn
        ]
        heapify(self._queue)

    def _grant_next(self):
        queue = self._queue
        users = self.users
        capacity = self.capacity
        while queue and len(users) < capacity:
            req = heappop(queue)[2]
            if req._withdrawn:
                continue  # tombstone: withdrawn while queued
            self._live -= 1
            if req._value is not PENDING:
                continue  # triggered behind our back; never re-grant
            users.add(req)
            req._grant()


class InfiniteResource(Resource):
    """A resource with unbounded servers: every claim granted instantly.

    Models the paper's "infinite resources" assumption — transactions
    never wait for CPU or I/O service. It is a :class:`Resource` whose
    capacity is infinite, so nothing ever queues.
    """

    __slots__ = ()

    def __init__(self, env):
        super().__init__(env, capacity=float("inf"))

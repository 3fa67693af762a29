"""Tests for the seize-and-hold service primitive (``serve``/``finish``).

A service is one event per CPU or disk leg: the pool starts it (at once,
or when a ``finish`` frees a server) and schedules its completion
itself. The parity test pins it to the request + ``Timeout`` pattern it
replaced, kept here as the reference (:class:`RequestPool`): completion
times and order, consumed service and busy area must be equal, not
merely close.
"""

import random
from heapq import heappop, heappush
from itertools import count

import pytest

from repro.des import (
    BusyTracker,
    EmptySchedule,
    Environment,
    Event,
    InfiniteResource,
    Interrupt,
    Resource,
    Service,
    Timeout,
)
from repro.faults import REPAIR_PRIORITY


class Request(Event):
    """An open-ended claim on a :class:`RequestPool` server."""

    def __init__(self, env):
        super().__init__(env)
        self.withdrawn = False


class RequestPool:
    """The reference: the request/release pool ``serve`` replaced.

    A claim is granted (its event scheduled) when a server is free and
    nobody queues, else it queues in (priority, arrival) order until a
    release frees a server. Releasing a queued claim withdraws it.
    """

    def __init__(self, env, capacity):
        self.env = env
        self.capacity = capacity
        self.users = set()
        self.queue = []
        self.live = 0
        self.order = count().__next__

    @property
    def in_use(self):
        return len(self.users)

    def request(self, priority):
        claim = Request(self.env)
        if not self.live and len(self.users) < self.capacity:
            self.users.add(claim)
            claim.succeed(claim)
        else:
            heappush(self.queue, (priority, self.order(), claim))
            self.live += 1
        return claim

    def release(self, claim):
        if claim in self.users:
            self.users.remove(claim)
            while self.queue and len(self.users) < self.capacity:
                waiter = heappop(self.queue)[2]
                if waiter.withdrawn:
                    continue
                self.live -= 1
                self.users.add(waiter)
                waiter.succeed(waiter)
        elif not claim.withdrawn and not claim.triggered:
            claim.withdrawn = True
            self.live -= 1


def request_leg(env, pool, tracker, amount, priority, spent):
    """The reference: request, hold a ``Timeout``, release."""
    request = pool.request(priority=priority)
    try:
        yield request
        tracker.acquire()
        start = env._now
        try:
            yield Timeout(env, amount)
        finally:
            tracker.release()
            spent[0] += env._now - start
    finally:
        pool.release(request)


def serve_leg(env, pool, tracker, amount, priority, spent):
    service = pool.serve(amount, priority, tracker)
    try:
        yield service
    finally:
        spent[0] += pool.finish(service)


def serve_pool(env, infinite, capacity):
    return InfiniteResource(env) if infinite else Resource(env, capacity)


def request_pool(env, infinite, capacity):
    return RequestPool(env, float("inf") if infinite else capacity)


def run_scenario(leg, make_pool, seed, infinite, capacity, equal):
    """Workers doing legs under random interrupts; the observable log."""
    rng = random.Random(seed)
    env = Environment()
    pool = make_pool(env, infinite, capacity)
    tracker = BusyTracker(env, "pool", pool.capacity)
    log = []
    workers = []

    def worker(tag, plan, spent):
        for index, (gap, amount, priority) in enumerate(plan):
            try:
                if gap:
                    yield env.timeout(gap)
                yield from leg(env, pool, tracker, amount, priority, spent)
                log.append((env.now, tag, index, "done", spent[0]))
            except Interrupt:
                log.append((env.now, tag, index, "interrupted", spent[0]))

    def interrupter(plan):
        for gap, picks in plan:
            yield env.timeout(gap)
            # Several victims in one instant: a waiter granted by an
            # earlier victim's release is interrupted before it ran.
            for pick in picks:
                alive = [w for w in workers if w.is_alive]
                if alive:
                    alive[pick % len(alive)].interrupt()

    for tag in range(12):
        plan = []
        for index in range(8):
            # Every worker's first leg starts at time 0, so equal
            # lengths complete in the same instant even without a queue.
            gap = 0.0 if index == 0 else rng.expovariate(1.0)
            amount = 1.0 if equal else rng.uniform(0.2, 2.0)
            plan.append((gap, amount, rng.randrange(2)))
        workers.append(env.process(worker(tag, plan, [0.0])))
    env.process(interrupter([
        (rng.expovariate(2.0), [rng.randrange(12) for _ in range(rng.randrange(1, 4))])
        for _ in range(15)
    ]))
    env.run()
    return log, tracker.busy_area(), env.now, pool.in_use


class TestParityWithRequestPattern:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("equal", [True, False], ids=["equal", "unequal"])
    @pytest.mark.parametrize(
        "infinite, capacity",
        [(False, 1), (False, 3), (True, None)],
        ids=["one-server", "three-servers", "infinite"],
    )
    def test_identical_to_request_and_timeout(self, seed, equal, infinite,
                                              capacity):
        expected = run_scenario(
            request_leg, request_pool, seed, infinite, capacity, equal)
        actual = run_scenario(
            serve_leg, serve_pool, seed, infinite, capacity, equal)
        assert actual == expected
        log = actual[0]
        assert any(kind == "interrupted" for *_, kind, _spent in log)
        assert actual[3] == 0


def hold(env, pool, amount, priority=0, tracker=None, out=None):
    service = pool.serve(amount, priority, tracker)
    if out is not None:
        out.append(service)
    try:
        yield service
    finally:
        consumed = pool.finish(service)
    return consumed


class TestService:
    def test_free_server_starts_at_once(self):
        env = Environment()
        pool = Resource(env, capacity=1)
        tracker = BusyTracker(env, "disk", 1)
        service = pool.serve(2.0, tracker=tracker)
        assert isinstance(service, Service)
        assert service.start == 0.0
        assert service.triggered
        assert pool.in_use == 1
        assert tracker.busy_now == 1
        env.run()
        assert service.processed
        assert env.now == 2.0

    def test_queued_service_starts_at_release(self):
        env = Environment()
        pool = Resource(env, capacity=1)
        tracker = BusyTracker(env, "disk", 1)
        services = []
        first = env.process(hold(env, pool, 2.0, tracker=tracker, out=services))
        second = env.process(hold(env, pool, 3.0, tracker=tracker, out=services))
        env.run(until=1.0)
        queued = services[1]
        assert queued.start is None
        assert not queued.triggered
        assert pool.queue_length == 1
        assert tracker.busy_now == 1
        env.run(until=2.5)
        assert queued.start == 2.0
        assert tracker.busy_now == 1
        env.run()
        assert first.value == 2.0
        assert second.value == 3.0
        assert env.now == 5.0
        assert tracker.busy_area() == 5.0
        assert pool.in_use == 0

    def test_withdrawal_while_queued(self):
        env = Environment()
        pool = Resource(env, capacity=1)
        tracker = BusyTracker(env, "disk", 1)
        holder = env.process(hold(env, pool, 2.0, tracker=tracker))
        env.run(until=0.5)
        queued = pool.serve(1.0, tracker=tracker)
        assert pool.queue_length == 1
        assert pool.finish(queued) == 0.0
        assert pool.queue_length == 0
        assert pool.finish(queued) == 0.0  # idempotent
        env.run()
        assert holder.value == 2.0
        assert not queued.triggered
        assert queued.start is None
        assert tracker.busy_area() == 2.0
        assert pool.in_use == 0

    def test_interrupt_mid_service(self):
        env = Environment()
        pool = Resource(env, capacity=1)
        tracker = BusyTracker(env, "disk", 1)
        services = []
        spent = []

        def victim():
            try:
                yield from hold(env, pool, 4.0, tracker=tracker)
            except Interrupt:
                spent.append(env.now)

        target = env.process(victim())
        waiter = env.process(hold(env, pool, 1.0, tracker=tracker, out=services))

        def interrupter():
            yield env.timeout(1.5)
            target.interrupt()

        env.process(interrupter())
        env.run()
        assert spent == [1.5]
        # The waiter started in the instant the victim let go.
        assert services[0].start == 1.5
        assert waiter.value == 1.0
        # finish withdrew the victim's completion (due at 4.0): the run
        # loop discards it without moving the clock.
        assert env.now == 2.5
        assert tracker.busy_area() == 2.5
        assert pool.in_use == 0

    def test_withdrawn_completion_is_skipped_by_step_and_peek(self):
        env = Environment()
        pool = Resource(env, capacity=1)
        service = pool.serve(4.0)
        env.timeout(1.0)
        assert pool.finish(service) == 0.0
        assert service.processed  # withdrawn: it will never fire
        assert env.peek() == 1.0
        env.step()
        assert env.now == 1.0
        assert env.peek() == float("inf")
        with pytest.raises(EmptySchedule):
            env.step()
        assert env.now == 1.0

    def test_completion_with_another_waiter_is_not_withdrawn(self):
        # finish withdraws a completion only when nobody waits on it.
        env = Environment()
        pool = Resource(env, capacity=1)
        service = pool.serve(4.0)
        woken = []

        def bystander():
            yield service
            woken.append(env.now)

        env.process(bystander())
        env.run(until=1.0)
        assert pool.finish(service) == 1.0
        env.run()
        assert woken == [4.0]
        assert env.now == 4.0

    def test_interrupt_in_the_grant_instant_consumes_nothing(self):
        # A waiter granted by a release and interrupted in that same
        # instant has started and finished at once: a zero-length busy
        # period and 0.0 of service.
        env = Environment()
        pool = Resource(env, capacity=1)
        tracker = BusyTracker(env, "disk", 1)
        consumed = []

        def worker(amount):
            service = pool.serve(amount, tracker=tracker)
            try:
                yield service
            except Interrupt:
                pass
            finally:
                consumed.append((env.now, pool.finish(service)))

        holder = env.process(worker(3.0))
        waiter = env.process(worker(1.0))

        def interrupter():
            yield env.timeout(2.0)
            holder.interrupt()
            waiter.interrupt()

        env.process(interrupter())
        env.run()
        assert consumed == [(2.0, 2.0), (2.0, 0.0)]
        assert tracker.busy_area() == 2.0
        assert tracker.busy_now == 0
        assert pool.in_use == 0

    def test_priority_class_served_first(self):
        env = Environment()
        pool = Resource(env, capacity=1)
        services = []
        env.process(hold(env, pool, 1.0, out=services))
        env.run(until=0.1)
        low = pool.serve(1.0, priority=1)
        high = pool.serve(1.0, priority=0)
        pool.finish(services[0])
        assert high.start == 0.1
        assert low.start is None
        pool.finish(high)
        assert low.start == 0.1

    def test_repair_and_services_share_one_disk_queue(self):
        env = Environment()
        disk = Resource(env, capacity=1)
        log = []

        def io(tag, amount):
            yield from hold(env, disk, amount)
            log.append((tag, env.now))

        class RepairWatch:
            def started(self):
                log.append(("repair-start", env.now))

            def ended(self):
                log.append(("repair-end", env.now))

        def repair():
            service = disk.serve(5.0, priority=REPAIR_PRIORITY,
                                 watch=RepairWatch())
            try:
                yield service
            finally:
                disk.finish(service)

        env.process(io("first", 2.0))
        env.run(until=1.0)
        env.process(io("queued", 1.0))
        env.process(repair())
        env.run()
        # The repair outranks the earlier-queued service; the service
        # starts when the repair ends. The repair starts inside the
        # first service's finish, before its process logs.
        assert log == [
            ("repair-start", 2.0),
            ("first", 2.0),
            ("repair-end", 7.0),
            ("queued", 8.0),
        ]
        assert disk.in_use == 0

    def test_watch_brackets_the_busy_period(self):
        env = Environment()
        pool = Resource(env, capacity=1)
        calls = []

        class Watch:
            def __init__(self, tag):
                self.tag = tag

            def started(self):
                calls.append((self.tag, "busy", env.now))

            def ended(self):
                calls.append((self.tag, "idle", env.now))

        def worker(tag, amount):
            service = pool.serve(amount, watch=Watch(tag))
            try:
                yield service
            finally:
                pool.finish(service)

        env.process(worker("a", 1.0))
        env.process(worker("b", 1.0))
        env.run(until=0.5)
        withdrawn = pool.serve(1.0, watch=Watch("c"))
        pool.finish(withdrawn)
        env.run()
        assert calls == [
            ("a", "busy", 0.0),
            ("a", "idle", 1.0),
            ("b", "busy", 1.0),
            ("b", "idle", 2.0),
        ]

    def test_infinite_pool_never_queues(self):
        env = Environment()
        pool = InfiniteResource(env)
        tracker = BusyTracker(env, "cpu", pool.capacity)
        services = [pool.serve(1.0, tracker=tracker) for _ in range(5)]
        assert all(service.start == 0.0 for service in services)
        assert pool.in_use == 5
        assert tracker.busy_now == 5
        env.run(until=0.5)
        assert pool.finish(services[0]) == 0.5
        assert pool.finish(services[0]) == 0.0
        assert pool.in_use == 4

    def test_infinite_pool_counts_running_services(self):
        env = Environment()
        pool = InfiniteResource(env)
        first = pool.serve(1.0)
        second = pool.serve(2.0)
        assert pool.in_use == 2
        assert pool.queue_length == 0
        env.run()
        # Completed but not finished: still running as far as the
        # pool is concerned.
        assert pool.in_use == 2
        assert pool.finish(second) == 2.0
        assert pool.in_use == 1
        assert pool.finish(second) == 0.0  # idempotent
        assert pool.in_use == 1
        assert pool.finish(first) == 2.0
        assert pool.finish(first) == 0.0
        assert pool.in_use == 0

    def test_interrupt_mid_infinite_leg(self):
        env = Environment()
        pool = InfiniteResource(env)
        tracker = BusyTracker(env, "cpu", pool.capacity)
        consumed = []

        def victim():
            service = pool.serve(4.0, tracker=tracker)
            try:
                yield service
            except Interrupt:
                pass
            finally:
                consumed.append(pool.finish(service))

        target = env.process(victim())

        def interrupter():
            yield env.timeout(1.25)
            target.interrupt()

        env.process(interrupter())
        env.run()
        assert consumed == [1.25]
        assert tracker.busy_now == 0
        assert tracker.busy_area() == 1.25
        assert pool.in_use == 0
        # The withdrawn completion (due at 4.0) never moved the clock.
        assert env.now == 1.25

    def test_queued_start_charges_tracker_at_release_instant(self):
        # Two legs on one server, the second queued behind the first:
        # it starts inside the first one's finish, so the tracker is
        # charged from that instant on, exactly as the request
        # reference charges it.
        def legs(leg, pool):
            env = Environment()
            pool = pool(env, False, 1)
            tracker = BusyTracker(env, "disk", 1)
            spent = [0.0]
            env.process(leg(env, pool, tracker, 1.5, 0, spent))
            env.process(leg(env, pool, tracker, 0.75, 0, spent))
            env.run(until=2.0)
            charged = (tracker.busy_now, tracker.busy_area())
            env.run()
            return charged, tracker.busy_area(), spent[0], env.now

        served = legs(serve_leg, serve_pool)
        assert served[0] == (1, 2.0)
        assert served == legs(request_leg, request_pool)
        assert served[1:] == (2.25, 2.25, 2.25)

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env).serve(-1.0)

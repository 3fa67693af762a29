"""Tests for the seize-and-hold service primitive (``serve``/``finish``).

A service is one event per CPU or disk leg: the pool starts it (at once,
or when a release frees a server) and schedules its completion itself.
The parity test pins it to the request + ``Timeout`` pattern it
replaced, kept here as the reference: completion times and order,
consumed service and busy area must be equal, not merely close.
"""

import random

import pytest

from repro.des import (
    BusyTracker,
    EmptySchedule,
    Environment,
    InfiniteResource,
    Interrupt,
    Resource,
    Service,
    Timeout,
)
from repro.faults import REPAIR_PRIORITY


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


def run_scenario(leg, seed, infinite, capacity, equal):
    """Workers doing legs under random interrupts; the observable log."""
    rng = random.Random(seed)
    env = Environment()
    pool = InfiniteResource(env) if infinite else Resource(env, capacity)
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
        expected = run_scenario(request_leg, seed, infinite, capacity, equal)
        actual = run_scenario(serve_leg, seed, infinite, capacity, equal)
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

    def test_repair_request_and_services_share_one_disk_queue(self):
        env = Environment()
        disk = Resource(env, capacity=1)
        log = []

        def io(tag, amount):
            yield from hold(env, disk, amount)
            log.append((tag, env.now))

        def repair():
            with disk.request(priority=REPAIR_PRIORITY) as claim:
                yield claim
                log.append(("repair-start", env.now))
                yield env.timeout(5.0)
            log.append(("repair-end", env.now))

        env.process(io("first", 2.0))
        env.run(until=1.0)
        env.process(io("queued", 1.0))
        env.process(repair())
        env.run()
        # The repair claim outranks the earlier-queued service; the
        # service starts when the repair releases the disk.
        assert log == [
            ("first", 2.0),
            ("repair-start", 2.0),
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

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env).serve(-1.0)

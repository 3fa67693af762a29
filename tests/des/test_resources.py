"""Tests for resource pools: capacity, FCFS and priority order."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des import Environment, InfiniteResource, Resource


class StartLog:
    """A watch logging the instant its service starts."""

    def __init__(self, env, log, tag):
        self.env = env
        self.log = log
        self.tag = tag

    def started(self):
        self.log.append((self.tag, "start", self.env.now))

    def ended(self):
        pass


def hold(env, resource, log, tag, duration, priority=0):
    service = resource.serve(duration, priority,
                             watch=StartLog(env, log, tag))
    try:
        yield service
    finally:
        resource.finish(service)
    log.append((tag, "end", env.now))


class TestResource:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource(Environment(), capacity=0)

    def test_grants_up_to_capacity(self):
        env = Environment()
        res = Resource(env, capacity=2)
        log = []
        for tag in "abc":
            env.process(hold(env, res, log, tag, 10.0))
        env.run(until=1.0)
        started = [t for t, kind, _ in log if kind == "start"]
        assert started == ["a", "b"]
        assert res.in_use == 2
        assert res.queue_length == 1

    def test_fcfs_order(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []
        for i, tag in enumerate("abcd"):
            env.process(hold(env, res, log, tag, 1.0))
        env.run()
        starts = [(t, at) for t, kind, at in log if kind == "start"]
        assert starts == [("a", 0.0), ("b", 1.0), ("c", 2.0), ("d", 3.0)]

    def test_priority_served_first(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def scenario(env):
            env.process(hold(env, res, log, "running", 5.0))
            yield env.timeout(1.0)
            env.process(hold(env, res, log, "low", 1.0, priority=1))
            yield env.timeout(1.0)
            env.process(hold(env, res, log, "high", 1.0, priority=0))

        env.process(scenario(env))
        env.run()
        starts = [t for t, kind, _ in log if kind == "start"]
        # "high" arrived later but has a better priority class than "low"
        assert starts == ["running", "high", "low"]

    def test_finish_frees_the_server(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []
        env.process(hold(env, res, log, "a", 2.0))
        env.run()
        assert res.in_use == 0

    def test_double_finish_is_noop(self):
        env = Environment()
        res = Resource(env, capacity=1)
        service = res.serve(1.0)
        env.run()
        assert res.finish(service) == 1.0
        assert res.finish(service) == 0.0
        assert res.in_use == 0

    def test_withdraw_queued_service(self):
        env = Environment()
        res = Resource(env, capacity=1)
        first = res.serve(1.0)
        queued = res.serve(1.0)
        assert res.queue_length == 1
        res.finish(queued)
        assert res.queue_length == 0
        res.finish(first)
        assert res.in_use == 0

    def test_no_overtaking_when_queue_nonempty(self):
        # A service arriving while others queue must not jump ahead of
        # them, whatever the server does meanwhile.
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def releaser(env, service):
            yield env.timeout(1.0)
            res.finish(service)

        first = res.serve(5.0)
        env.process(hold(env, res, log, "queued", 1.0))
        env.process(releaser(env, first))
        env.process(hold(env, res, log, "late", 1.0))
        env.run()
        starts = [t for t, kind, _ in log if kind == "start"]
        assert starts == ["queued", "late"]

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=20))
    def test_never_exceeds_capacity(self, capacity, n_procs):
        env = Environment()
        res = Resource(env, capacity=capacity)
        max_seen = []

        def proc(env):
            service = res.serve(1.0)
            try:
                yield service
                max_seen.append(res.in_use)
            finally:
                res.finish(service)

        for _ in range(n_procs):
            env.process(proc(env))
        env.run()
        assert max(max_seen) <= capacity
        assert res.in_use == 0


class TestLazyDeletion:
    """Withdrawn queued services are tombstoned, not eagerly removed.

    Regressions for the lazy-deletion queue: a withdrawn service must
    never be started (even when it sits at the heap top as capacity
    frees), and tombstones — including a compaction pass — must not
    disturb the (priority, FIFO) start discipline.
    """

    def test_withdrawn_service_is_never_started(self):
        env = Environment()
        res = Resource(env, capacity=1)
        holder = res.serve(1.0)
        withdrawn = res.serve(1.0)
        waiter = res.serve(1.0)
        res.finish(withdrawn)  # tombstoned at the front of the queue
        res.finish(holder)
        env.run()
        assert withdrawn.triggered is False
        assert withdrawn.start is None
        assert waiter.triggered is True
        assert res.in_use == 1

    def test_withdrawn_then_finished_again_is_noop(self):
        env = Environment()
        res = Resource(env, capacity=1)
        holder = res.serve(1.0)
        withdrawn = res.serve(1.0)
        res.finish(withdrawn)
        res.finish(withdrawn)  # idempotent: still one tombstone
        assert res.queue_length == 0
        res.finish(holder)
        env.run()
        assert withdrawn.triggered is False
        assert res.in_use == 0

    def test_priority_order_survives_tombstones(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def scenario(env):
            env.process(hold(env, res, log, "running", 5.0))
            yield env.timeout(1.0)
            doomed = res.serve(1.0, priority=0)
            env.process(hold(env, res, log, "low", 1.0, priority=1))
            yield env.timeout(1.0)
            env.process(hold(env, res, log, "high", 1.0, priority=0))
            res.finish(doomed)

        env.process(scenario(env))
        env.run()
        starts = [t for t, kind, _ in log if kind == "start"]
        assert starts == ["running", "high", "low"]

    def test_fifo_preserved_across_compaction(self):
        # Overfill the queue past the compaction threshold, withdraw
        # enough to trigger a rebuild, and check the survivors are
        # still started in arrival order.
        env = Environment()
        res = Resource(env, capacity=1)
        holder = res.serve(1.0)
        services = [res.serve(1.0) for _ in range(200)]
        for i, service in enumerate(services):
            if i % 4 != 0:
                res.finish(service)
        survivors = [s for i, s in enumerate(services) if i % 4 == 0]
        assert res.queue_length == len(survivors)
        assert len(res._queue) < 200  # compaction actually ran
        started = []

        def driver(env):
            yield env.timeout(1.0)
            res.finish(holder)
            for _ in survivors:
                yield env.timeout(1.0)
                running = next(
                    s for s in survivors
                    if s.start is not None and s not in started
                )
                started.append(running)
                res.finish(running)

        env.process(driver(env))
        env.run()
        assert started == survivors

    def test_queue_length_counts_only_live_services(self):
        env = Environment()
        res = Resource(env, capacity=1)
        res.serve(1.0)
        queued = [res.serve(1.0) for _ in range(5)]
        res.finish(queued[1])
        res.finish(queued[3])
        assert res.queue_length == 3


class TestInfiniteResource:
    def test_everything_started_instantly(self):
        env = Environment()
        res = InfiniteResource(env)
        log = []
        for tag in range(50):
            env.process(hold(env, res, log, tag, 5.0))
        env.run(until=1.0)
        starts = [t for t, kind, _ in log if kind == "start"]
        assert len(starts) == 50
        assert res.in_use == 50
        assert res.queue_length == 0

    def test_finish(self):
        env = Environment()
        res = InfiniteResource(env)
        log = []
        env.process(hold(env, res, log, "a", 1.0))
        env.run()
        assert res.in_use == 0

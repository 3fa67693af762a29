"""Tests for resource pools: capacity, FCFS and priority order."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des import Environment, InfiniteResource, Resource


def hold(env, resource, log, tag, duration, priority=0):
    with resource.request(priority=priority) as req:
        yield req
        log.append((tag, "start", env.now))
        yield env.timeout(duration)
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

    def test_release_via_context_manager(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []
        env.process(hold(env, res, log, "a", 2.0))
        env.run()
        assert res.in_use == 0

    def test_double_release_is_noop(self):
        env = Environment()
        res = Resource(env, capacity=1)
        req = res.request()
        env.run()
        res.release(req)
        res.release(req)
        assert res.in_use == 0

    def test_cancel_queued_request(self):
        env = Environment()
        res = Resource(env, capacity=1)
        first = res.request()
        queued = res.request()
        assert res.queue_length == 1
        queued.cancel()
        assert res.queue_length == 0
        res.release(first)
        assert res.in_use == 0

    def test_no_overtaking_when_queue_nonempty(self):
        # Even if capacity is momentarily free, a new request must not jump
        # ahead of the queue.
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def releaser(env, req):
            yield env.timeout(1.0)
            res.release(req)

        first = res.request()
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
            with res.request() as req:
                yield req
                max_seen.append(res.in_use)
                yield env.timeout(1.0)

        for _ in range(n_procs):
            env.process(proc(env))
        env.run()
        assert max(max_seen) <= capacity
        assert res.in_use == 0


class TestLazyDeletion:
    """Withdrawn queued requests are tombstoned, not eagerly removed.

    Regressions for the lazy-deletion queue: a withdrawn request must
    never be granted (even when it sits at the heap top as capacity
    frees), and tombstones — including a compaction pass — must not
    disturb the (priority, FIFO) grant discipline.
    """

    def test_withdrawn_request_is_never_granted(self):
        env = Environment()
        res = Resource(env, capacity=1)
        holder = res.request()
        withdrawn = res.request()
        waiter = res.request()
        withdrawn.cancel()  # tombstoned at the front of the queue
        res.release(holder)
        env.run()
        assert withdrawn.triggered is False
        assert waiter.triggered is True
        assert res.in_use == 1

    def test_withdrawn_then_released_again_is_noop(self):
        env = Environment()
        res = Resource(env, capacity=1)
        holder = res.request()
        withdrawn = res.request()
        withdrawn.cancel()
        withdrawn.cancel()  # idempotent: still one tombstone
        assert res.queue_length == 0
        res.release(holder)
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
            doomed = res.request(priority=0)
            env.process(hold(env, res, log, "low", 1.0, priority=1))
            yield env.timeout(1.0)
            env.process(hold(env, res, log, "high", 1.0, priority=0))
            doomed.cancel()

        env.process(scenario(env))
        env.run()
        starts = [t for t, kind, _ in log if kind == "start"]
        assert starts == ["running", "high", "low"]

    def test_fifo_preserved_across_compaction(self):
        # Overfill the queue past the compaction threshold, withdraw
        # enough to trigger a rebuild, and check the survivors are
        # still granted in arrival order.
        env = Environment()
        res = Resource(env, capacity=1)
        holder = res.request()
        requests = [res.request() for _ in range(200)]
        for i, req in enumerate(requests):
            if i % 4 != 0:
                req.cancel()
        survivors = [req for i, req in enumerate(requests) if i % 4 == 0]
        assert res.queue_length == len(survivors)
        assert len(res._queue) < 200  # compaction actually ran
        granted = []

        def driver(env):
            yield env.timeout(1.0)
            res.release(holder)
            for _ in survivors:
                yield env.timeout(1.0)
                grantee = next(
                    req for req in survivors if req in res.users
                )
                granted.append(grantee)
                res.release(grantee)

        env.process(driver(env))
        env.run()
        assert granted == survivors

    def test_queue_length_counts_only_live_requests(self):
        env = Environment()
        res = Resource(env, capacity=1)
        res.request()
        queued = [res.request() for _ in range(5)]
        queued[1].cancel()
        queued[3].cancel()
        assert res.queue_length == 3


class TestInfiniteResource:
    def test_everything_granted_instantly(self):
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

    def test_release(self):
        env = Environment()
        res = InfiniteResource(env)
        log = []
        env.process(hold(env, res, log, "a", 1.0))
        env.run()
        assert res.in_use == 0


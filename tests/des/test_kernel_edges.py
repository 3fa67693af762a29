"""Edge-case tests for the DES kernel's less-traveled paths."""

import pytest

from repro.des import (
    Environment,
    Interrupt,
    Resource,
    StreamFactory,
)


class TestEventEdges:
    def test_appending_callback_after_processing_fails_loudly(self):
        env = Environment()
        event = env.event().succeed()
        env.run()
        with pytest.raises(AttributeError):
            event.callbacks.append(lambda ev: None)


class TestProcessEdges:
    def test_target_exposed_while_waiting(self):
        env = Environment()
        gate = env.event()

        def proc(env):
            yield gate

        process = env.process(proc(env))
        env.run(until=0.0)
        env.step()  # run the initializer
        assert process.target is gate
        gate.succeed()
        env.run()
        assert process.target is None

    def test_interrupt_cause_none(self):
        env = Environment()

        def victim(env):
            try:
                yield env.timeout(10.0)
            except Interrupt as interrupt:
                return interrupt.cause

        process = env.process(victim(env))

        def killer(env):
            yield env.timeout(1.0)
            process.interrupt()

        env.process(killer(env))
        assert env.run(until=process) is None

    def test_process_chain_same_instant(self):
        # A chain of already-fired events resumes synchronously without
        # advancing time.
        env = Environment()

        def quick(env):
            for _ in range(100):
                yield env.timeout(0.0)
            return env.now

        assert env.run(until=env.process(quick(env))) == 0.0


class TestResourceEdges:
    def test_release_of_never_granted_request_is_safe(self):
        env = Environment()
        pool = Resource(env, capacity=1)
        first = pool.request()
        queued = pool.request()
        pool.release(queued)   # withdraw from queue
        pool.release(queued)   # and again: idempotent
        pool.release(first)
        assert pool.in_use == 0
        assert pool.queue_length == 0

    def test_interrupted_holder_releases_via_context_manager(self):
        env = Environment()
        pool = Resource(env, capacity=1)
        order = []

        def holder(env):
            with pool.request() as grant:
                yield grant
                order.append("held")
                try:
                    yield env.timeout(100.0)
                except Interrupt:
                    order.append("interrupted")
                    return

        def waiter(env):
            with pool.request() as grant:
                yield grant
                order.append("waiter-in")

        victim = env.process(holder(env))
        env.process(waiter(env))

        def killer(env):
            yield env.timeout(1.0)
            victim.interrupt()

        env.process(killer(env))
        env.run()
        assert order == ["held", "interrupted", "waiter-in"]
        assert pool.in_use == 0


class TestStreamEdges:
    def test_shuffle_is_deterministic(self):
        def shuffled():
            stream = StreamFactory(3).stream("s")
            items = list(range(20))
            stream.shuffle(items)
            return items

        assert shuffled() == shuffled()

    def test_choice(self):
        stream = StreamFactory(4).stream("c")
        assert stream.choice(["only"]) == "only"

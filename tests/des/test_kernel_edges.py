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
    def test_finish_of_never_started_service_is_safe(self):
        env = Environment()
        pool = Resource(env, capacity=1)
        first = pool.serve(1.0)
        queued = pool.serve(1.0)
        assert pool.finish(queued) == 0.0   # withdraw from queue
        assert pool.finish(queued) == 0.0   # and again: idempotent
        pool.finish(first)
        assert pool.in_use == 0
        assert pool.queue_length == 0

    def test_interrupted_holder_frees_the_server_in_finally(self):
        env = Environment()
        pool = Resource(env, capacity=1)
        order = []

        def holder(env):
            service = pool.serve(100.0)
            try:
                yield service
            except Interrupt:
                order.append("interrupted")
            finally:
                pool.finish(service)

        def waiter(env):
            service = pool.serve(1.0)
            try:
                yield service
                order.append("waiter-done")
            finally:
                pool.finish(service)

        victim = env.process(holder(env))
        env.process(waiter(env))

        def killer(env):
            yield env.timeout(1.0)
            victim.interrupt()

        env.process(killer(env))
        env.run()
        assert order == ["interrupted", "waiter-done"]
        assert env.now == 2.0
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

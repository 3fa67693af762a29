"""Tests for generator-based processes: waiting, returning, interrupts."""

import gc

import pytest

from repro.des import Environment, Interrupt, Process


class TestProcessBasics:
    def test_requires_generator(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_process_runs_at_creation_time(self):
        env = Environment()
        log = []

        def proc(env):
            log.append(env.now)
            yield env.timeout(1.0)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [0.0, 1.0]

    def test_return_value_becomes_event_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            return 42

        assert env.run(until=env.process(proc(env))) == 42

    def test_processes_wait_on_each_other(self):
        env = Environment()

        def child(env):
            yield env.timeout(3.0)
            return "child-result"

        def parent(env):
            result = yield env.process(child(env))
            return result

        assert env.run(until=env.process(parent(env))) == "child-result"
        assert env.now == 3.0

    def test_wait_on_already_finished_process(self):
        env = Environment()

        def child(env):
            yield env.timeout(1.0)
            return 7

        child_proc = env.process(child(env))

        def parent(env):
            yield env.timeout(5.0)
            value = yield child_proc
            return value

        assert env.run(until=env.process(parent(env))) == 7
        assert env.now == 5.0

    def test_yielding_non_event_fails_process(self):
        env = Environment()

        def proc(env):
            yield "not an event"

        p = env.process(proc(env))
        with pytest.raises(TypeError, match="non-event"):
            env.run(until=p)

    def test_exception_in_process_propagates_to_waiter(self):
        env = Environment()

        def child(env):
            yield env.timeout(1.0)
            raise ValueError("child failed")

        def parent(env):
            yield env.process(child(env))

        with pytest.raises(ValueError, match="child failed"):
            env.run(until=env.process(parent(env)))

    def test_unwaited_process_exception_surfaces(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            raise RuntimeError("unobserved")

        env.process(proc(env))
        with pytest.raises(RuntimeError, match="unobserved"):
            env.run()

    def test_is_alive(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_finished_processes_are_freed_without_the_cyclic_collector(self):
        env = Environment()

        def child(env):
            yield env.timeout(1.0)
            return 1

        def parent(env):
            total = 0
            for _ in range(50):
                total += yield env.process(child(env))
            return total

        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            top = env.process(parent(env))
            env.run()
            assert top.value == 50
            del top
            alive = [
                obj for obj in gc.get_objects()
                if isinstance(obj, Process) and obj.env is env
            ]
        finally:
            if enabled:
                gc.enable()
        assert alive == []

    def test_name_defaults_to_function_name(self):
        env = Environment()

        def my_transaction(env):
            yield env.timeout(1.0)

        p = env.process(my_transaction(env))
        assert p.name == "my_transaction"
        env.run()


class TestInterrupts:
    def test_interrupt_delivers_cause(self):
        env = Environment()

        def victim(env):
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, env.now)

        p = env.process(victim(env))

        def killer(env):
            yield env.timeout(2.0)
            p.interrupt(cause="deadlock")

        env.process(killer(env))
        assert env.run(until=p) == ("interrupted", "deadlock", 2.0)

    def test_interrupted_process_can_continue(self):
        env = Environment()

        def victim(env):
            try:
                yield env.timeout(100.0)
            except Interrupt:
                pass
            yield env.timeout(1.0)
            return env.now

        p = env.process(victim(env))

        def killer(env):
            yield env.timeout(5.0)
            p.interrupt()

        env.process(killer(env))
        assert env.run(until=p) == 6.0

    def test_uncaught_interrupt_fails_process(self):
        env = Environment()

        def victim(env):
            yield env.timeout(100.0)

        p = env.process(victim(env))

        def killer(env):
            yield env.timeout(1.0)
            p.interrupt("boom")

        env.process(killer(env))
        with pytest.raises(Interrupt):
            env.run(until=p)

    def test_interrupting_finished_process_is_error(self):
        env = Environment()

        def quick(env):
            yield env.timeout(1.0)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(RuntimeError):
            p.interrupt()

    def test_interrupt_race_with_completion_is_dropped(self):
        # Victim finishes at t=1; interrupt issued at t=1 from another
        # process. Whichever order the queue resolves, nothing blows up.
        env = Environment()

        def victim(env):
            yield env.timeout(1.0)
            return "done"

        p = env.process(victim(env))

        def killer(env):
            yield env.timeout(1.0)
            if p.is_alive:
                p.interrupt()

        env.process(killer(env))
        env.run()
        assert p.triggered

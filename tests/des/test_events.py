"""Tests for event primitives: triggering, failure, timeouts."""

import pytest

from repro.des import Environment


class TestEventLifecycle:
    def test_fresh_event_state(self):
        env = Environment()
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed
        with pytest.raises(AttributeError):
            ev.value
        with pytest.raises(AttributeError):
            ev.ok

    def test_succeed_carries_value(self):
        env = Environment()
        ev = env.event().succeed("payload")
        assert ev.triggered
        assert ev.ok
        assert ev.value == "payload"

    def test_double_trigger_rejected(self):
        env = Environment()
        ev = env.event().succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()
        with pytest.raises(RuntimeError):
            ev.fail(ValueError("x"))

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_value_of_failed_event_raises(self):
        env = Environment()
        ev = env.event()
        ev.fail(ValueError("boom"))
        ev._defused = True
        with pytest.raises(ValueError, match="boom"):
            ev.value

    def test_callbacks_none_after_processing(self):
        env = Environment()
        ev = env.event().succeed()
        env.run()
        assert ev.processed
        assert ev.callbacks is None

    def test_repr_reflects_state(self):
        env = Environment()
        ev = env.event()
        assert "pending" in repr(ev)
        ev.succeed()
        assert "triggered" in repr(ev)
        env.run()
        assert "processed" in repr(ev)


class TestTimeout:
    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_zero_delay_fires_now(self):
        env = Environment()
        ev = env.timeout(0.0, value=1)
        env.run()
        assert ev.processed
        assert env.now == 0.0

    def test_timeout_value(self):
        env = Environment()

        def proc(env):
            got = yield env.timeout(1.0, value="tick")
            return got

        assert env.run(until=env.process(proc(env))) == "tick"


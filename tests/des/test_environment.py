"""Tests for the event loop: ordering, run bounds, determinism."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des import EmptySchedule, Environment, NORMAL, URGENT


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=7.5).now == 7.5

    def test_run_until_time_advances_clock(self):
        env = Environment()
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_raises(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)


class TestEventOrdering:
    def test_time_order(self):
        env = Environment()
        fired = []
        for delay in (3.0, 1.0, 2.0):
            env.timeout(delay).callbacks.append(
                lambda ev, d=delay: fired.append(d)
            )
        env.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_fifo_within_same_time(self):
        env = Environment()
        fired = []
        for tag in "abc":
            env.timeout(1.0).callbacks.append(
                lambda ev, t=tag: fired.append(t)
            )
        env.run()
        assert fired == ["a", "b", "c"]

    def test_urgent_preempts_normal_at_same_time(self):
        env = Environment()
        fired = []
        normal = env.event()
        urgent = env.event()
        normal.callbacks.append(lambda ev: fired.append("normal"))
        urgent.callbacks.append(lambda ev: fired.append("urgent"))
        normal.succeed(priority=NORMAL)
        urgent.succeed(priority=URGENT)
        env.run()
        assert fired == ["urgent", "normal"]

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=1,
            max_size=50,
        )
    )
    def test_processing_order_is_nondecreasing(self, delays):
        env = Environment()
        seen = []
        for d in delays:
            env.timeout(d).callbacks.append(
                lambda ev: seen.append(env.now)
            )
        env.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)


class TestRunModes:
    def test_step_on_empty_raises(self):
        with pytest.raises(EmptySchedule):
            Environment().step()

    def test_run_until_event_returns_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(2.0)
            return "done"

        result = env.run(until=env.process(proc(env)))
        assert result == "done"
        assert env.now == 2.0

    def test_run_until_already_processed_event(self):
        env = Environment()
        ev = env.timeout(1.0, value="v")
        env.run()
        assert env.run(until=ev) == "v"

    def test_run_until_event_never_fires_raises(self):
        env = Environment()
        never = env.event()
        env.timeout(1.0)
        with pytest.raises(RuntimeError, match="until-event"):
            env.run(until=never)

    def test_run_until_time_sets_now_when_queue_drains_early(self):
        # The queue runs dry at t=1 but the caller asked for t=10: the
        # clock must land on the requested deadline, not on the last
        # event, so back-to-back windowed runs tile time seamlessly.
        env = Environment()
        env.timeout(1.0)
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_time_on_empty_queue_advances_clock(self):
        env = Environment()
        env.run(until=7.5)
        assert env.now == 7.5

    def test_run_until_never_firing_event_leaves_clock_at_last_event(self):
        env = Environment()
        never = env.event()
        env.timeout(1.0)
        env.timeout(3.0)
        with pytest.raises(RuntimeError, match="until-event"):
            env.run(until=never)
        assert env.now == 3.0

    def test_run_until_never_firing_event_with_empty_queue(self):
        env = Environment()
        with pytest.raises(RuntimeError, match="until-event"):
            env.run(until=env.event())

    def test_urgent_band_is_fifo_before_the_normal_band(self):
        # Same-time events: every URGENT event fires before any NORMAL
        # event, and each band is FIFO in scheduling order — even when
        # the bands are scheduled interleaved.
        env = Environment()
        fired = []
        for tag, priority in (
            ("n1", NORMAL), ("u1", URGENT),
            ("n2", NORMAL), ("u2", URGENT),
        ):
            event = env.event()
            event.callbacks.append(lambda ev, t=tag: fired.append(t))
            event.succeed(priority=priority)
        env.run()
        assert fired == ["u1", "u2", "n1", "n2"]

    def test_run_until_time_excludes_boundary_events(self):
        env = Environment()
        fired = []
        env.timeout(5.0).callbacks.append(lambda ev: fired.append(1))
        env.run(until=5.0)
        assert fired == []  # events at exactly t are left for the next run
        env.run(until=6.0)
        assert fired == [1]

    def test_run_until_reentry_matches_a_single_run(self):
        # Re-entering run(until=t) at many boundaries (the sweep's
        # fused executor does so once per batch) processes the same
        # events in the same order as one run to the last boundary.
        def ticker(env, log, label, period):
            for _ in range(20):
                yield env.timeout(period)
                log.append((label, env.now))

        def build():
            env = Environment()
            log = []
            env.process(ticker(env, log, "fast", 0.7))
            env.process(ticker(env, log, "slow", 1.1))
            return env, log

        single, single_log = build()
        single.run(until=13.0)
        stepped, stepped_log = build()
        for boundary in (2.0, 2.0, 2.1, 5.5, 13.0):
            stepped.run(until=boundary)
            assert stepped.now == boundary
        assert stepped_log == single_log

    def test_unwaited_failure_surfaces_at_run_loop(self):
        env = Environment()
        ev = env.event()
        ev.fail(RuntimeError("lost failure"))
        with pytest.raises(RuntimeError, match="lost failure"):
            env.run()


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def build_trace():
            from repro.des import StreamFactory

            env = Environment()
            rng = StreamFactory(42).stream("arrivals")
            trace = []

            def proc(env):
                for _ in range(20):
                    yield env.timeout(rng.exponential(1.0))
                    trace.append(round(env.now, 12))

            env.process(proc(env))
            env.run()
            return trace

        assert build_trace() == build_trace()

"""Tests for environment-bound measurement instruments."""

import pytest

from repro.des import BusyTracker, Counter, Environment, LevelMonitor


class TestCounter:
    def test_increment_and_delta(self):
        c = Counter("commits")
        c.increment()
        c.increment(4)
        assert c.total == 5
        snap = c.total
        c.increment(2)
        assert c.delta_since(snap) == 2

    def test_delta_across_successive_snapshots(self):
        # The batch-means idiom: snapshot the total at each batch
        # boundary; deltas against successive snapshots partition the
        # cumulative count.
        c = Counter("commits")
        start = c.total
        c.increment(3)
        boundary = c.total
        assert c.delta_since(start) == 3
        c.increment(7)
        assert c.delta_since(boundary) == 7
        assert c.delta_since(start) == 10
        assert c.delta_since(c.total) == 0


class TestLevelMonitor:
    def test_time_average_follows_clock(self):
        env = Environment()
        level = LevelMonitor(env, "mpl", initial=0.0)

        def proc(env):
            level.set(10.0)
            yield env.timeout(2.0)
            level.set(20.0)
            yield env.timeout(2.0)

        env.process(proc(env))
        env.run()
        # 10 for [0,2), 20 for [2,4) -> average 15 over [0,4]
        assert level.time_average() == pytest.approx(15.0)

    def test_add(self):
        env = Environment()
        level = LevelMonitor(env, "queue")
        level.add(3)
        level.add(-1)
        assert level.value == 2

    def test_window_average(self):
        env = Environment()
        level = LevelMonitor(env, "x", initial=4.0)

        def proc(env):
            yield env.timeout(10.0)

        env.process(proc(env))
        env.run(until=2.0)
        area = level.area()
        env.run(until=6.0)
        assert level.window_average(area, 2.0) == pytest.approx(4.0)

    def test_window_average_isolates_batches(self):
        # Three batches of 2s each with the level changing mid-run:
        # window deltas must recover each batch's own time average,
        # unpolluted by earlier batches.
        env = Environment()
        level = LevelMonitor(env, "q", initial=0.0)

        def proc(env):
            level.set(2.0)
            yield env.timeout(2.0)   # batch 1: 2.0 throughout
            level.set(6.0)
            yield env.timeout(1.0)
            level.set(10.0)
            yield env.timeout(1.0)   # batch 2: 6 for 1s, 10 for 1s
            yield env.timeout(2.0)   # batch 3: 10 throughout

        env.process(proc(env))
        averages = []
        for boundary in (2.0, 4.0, 6.0):
            start = env.now
            area = level.area()
            env.run(until=boundary)
            averages.append(level.window_average(area, start))
        assert averages == [
            pytest.approx(2.0), pytest.approx(8.0), pytest.approx(10.0)
        ]

    def test_window_average_empty_window_is_zero(self):
        env = Environment()
        level = LevelMonitor(env, "q", initial=3.0)
        # Zero-length window: no area has accrued; the average must not
        # divide by zero (it reports 0.0 by convention).
        assert level.window_average(level.area(), env.now) == 0.0


class TestBusyTracker:
    def test_utilization_single_server(self):
        env = Environment()
        disk = BusyTracker(env, "disk", capacity=1)

        def proc(env):
            disk.acquire()
            yield env.timeout(3.0)
            disk.release()
            yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        # busy 3 of 4 seconds on one server
        assert disk.utilization(0.0, 0.0) == pytest.approx(0.75)

    def test_utilization_multi_server(self):
        env = Environment()
        cpu = BusyTracker(env, "cpu", capacity=2)

        def proc(env):
            cpu.acquire()
            cpu.acquire()
            yield env.timeout(1.0)
            cpu.release()
            yield env.timeout(1.0)
            cpu.release()

        env.process(proc(env))
        env.run()
        # busy-server-seconds = 2*1 + 1*1 = 3 over 2 servers * 2 seconds
        assert cpu.utilization(0.0, 0.0) == pytest.approx(0.75)

    def test_useful_vs_wasted(self):
        env = Environment()
        disk = BusyTracker(env, "disk", capacity=1)

        def proc(env):
            disk.acquire()
            yield env.timeout(4.0)
            disk.release()
            disk.record_outcome(3.0, useful=True)
            disk.record_outcome(1.0, useful=False)

        env.process(proc(env))
        env.run()
        assert disk.utilization(0.0, 0.0) == pytest.approx(1.0)
        assert disk.useful_utilization(0.0, 0.0) == pytest.approx(0.75)
        assert disk.wasted_time == pytest.approx(1.0)

    def test_infinite_capacity_reports_zero_utilization(self):
        env = Environment()
        pool = BusyTracker(env, "cpu", capacity=float("inf"))
        pool.acquire()

        def proc(env):
            yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        assert pool.utilization(0.0, 0.0) == 0.0

    def test_empty_window(self):
        env = Environment()
        pool = BusyTracker(env, "cpu", capacity=1)
        assert pool.utilization(0.0, 0.0) == 0.0

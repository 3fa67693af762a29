"""Tests for the physical resource model (CPU pool + partitioned disks)."""

import pytest

from repro.core import SimulationParameters
from repro.resources import CC_PRIORITY, ClassicResourceModel
from repro.core.transaction import Transaction
from repro.des import Environment, InfiniteResource, Resource, StreamFactory


def build(num_cpus=1, num_disks=2, **overrides):
    params = SimulationParameters.table2(
        num_cpus=num_cpus, num_disks=num_disks, **overrides
    )
    env = Environment()
    physical = ClassicResourceModel(env, params, StreamFactory(5))
    return env, physical, params


def tx():
    return Transaction(1, 0, read_set=(1,), write_set=())


class TestConstruction:
    def test_finite_resources(self):
        _, physical, _ = build(num_cpus=3, num_disks=4)
        assert isinstance(physical.cpu, Resource)
        assert physical.cpu.capacity == 3
        assert len(physical.disks) == 4
        assert physical.disk_tracker.capacity == 4

    def test_infinite_resources(self):
        _, physical, _ = build(num_cpus=None, num_disks=None)
        assert isinstance(physical.cpu, InfiniteResource)
        assert isinstance(physical.disks[0], InfiniteResource)


class TestServiceTimes:
    def test_read_access_takes_io_plus_cpu(self):
        env, physical, params = build()
        t = tx()

        def proc(env):
            yield from physical.read_access(t)
            return env.now

        done = env.process(proc(env))
        assert env.run(until=done) == pytest.approx(
            params.obj_io + params.obj_cpu
        )
        assert t.attempt_disk_time == pytest.approx(params.obj_io)
        assert t.attempt_cpu_time == pytest.approx(params.obj_cpu)

    def test_write_request_is_cpu_only(self):
        env, physical, params = build()
        t = tx()

        def proc(env):
            yield from physical.write_request_work(t)
            return env.now

        done = env.process(proc(env))
        assert env.run(until=done) == pytest.approx(params.obj_cpu)
        assert t.attempt_disk_time == 0.0

    def test_deferred_update_is_io_only(self):
        env, physical, params = build()
        t = tx()

        def proc(env):
            yield from physical.deferred_update(t)
            return env.now

        done = env.process(proc(env))
        assert env.run(until=done) == pytest.approx(params.obj_io)
        assert t.attempt_cpu_time == 0.0

    def test_cc_request_free_by_default(self):
        env, physical, _ = build()
        t = tx()

        def proc(env):
            yield from physical.cc_request_work(t)
            return env.now

        done = env.process(proc(env))
        assert env.run(until=done) == 0.0

    def test_cc_request_charged_when_configured(self):
        env, physical, params = build(cc_cpu=0.005)
        t = tx()

        def proc(env):
            yield from physical.cc_request_work(t)
            return env.now

        done = env.process(proc(env))
        assert env.run(until=done) == pytest.approx(0.005)


class TestQueueing:
    def test_single_cpu_serializes(self):
        env, physical, params = build(num_cpus=1)
        finish_times = []

        def proc(env, t):
            yield from physical.cpu_service(t, 0.010)
            finish_times.append(env.now)

        for _ in range(3):
            env.process(proc(env, tx()))
        env.run()
        assert finish_times == pytest.approx([0.010, 0.020, 0.030])

    def test_multi_cpu_parallel(self):
        env, physical, _ = build(num_cpus=3)
        finish_times = []

        def proc(env, t):
            yield from physical.cpu_service(t, 0.010)
            finish_times.append(env.now)

        for _ in range(3):
            env.process(proc(env, tx()))
        env.run()
        assert finish_times == pytest.approx([0.010, 0.010, 0.010])

    def test_infinite_cpu_never_queues(self):
        env, physical, _ = build(num_cpus=None)
        finish_times = []

        def proc(env, t):
            yield from physical.cpu_service(t, 0.010)
            finish_times.append(env.now)

        for _ in range(50):
            env.process(proc(env, tx()))
        env.run()
        assert finish_times == pytest.approx([0.010] * 50)

    def test_cc_priority_jumps_cpu_queue(self):
        env, physical, _ = build(num_cpus=1, cc_cpu=0.001)
        order = []

        def object_work(env, tag):
            t = tx()
            yield from physical.cpu_service(t, 0.010)
            order.append(tag)

        def cc_work(env, tag):
            t = tx()
            yield env.timeout(0.001)  # arrive while queue is non-empty
            yield from physical.cpu_service(t, 0.001, CC_PRIORITY)
            order.append(tag)

        env.process(object_work(env, "obj1"))
        env.process(object_work(env, "obj2"))
        env.process(cc_work(env, "cc"))
        env.run()
        assert order == ["obj1", "cc", "obj2"]

    def test_disks_chosen_uniformly(self):
        env, physical, params = build(num_disks=2, obj_cpu=0.0)
        # Drive many reads and confirm both disks get used by watching
        # aggregate busy time equal the requested service time.
        total = 0.0

        def proc(env):
            nonlocal total
            t = tx()
            yield from physical.read_access(t)
            total += t.attempt_disk_time

        for _ in range(40):
            env.process(proc(env))
        env.run()
        assert total == pytest.approx(40 * params.obj_io)
        # Two disks at 100%: 40 reads over 2 disks take at least 20
        # services' time; with random assignment somewhat more, and
        # less than all 40 on one disk.
        assert 20 * params.obj_io <= env.now < 40 * params.obj_io


class TestOutcomeAccounting:
    def test_useful_and_wasted_attribution(self):
        env, physical, _ = build()
        winner, loser = tx(), tx()

        def proc(env, t):
            yield from physical.read_access(t)

        env.process(proc(env, winner))
        env.process(proc(env, loser))
        env.run()
        physical.charge_attempt(winner, useful=True)
        physical.charge_attempt(loser, useful=False)
        cpu, io = physical.params.obj_cpu, physical.params.obj_io
        assert physical.cpu_tracker.useful_time == pytest.approx(cpu)
        assert physical.cpu_tracker.wasted_time == pytest.approx(cpu)
        assert physical.disk_tracker.useful_time == pytest.approx(io)
        assert physical.disk_tracker.wasted_time == pytest.approx(io)

    def test_interrupted_service_charges_partial_time(self):
        env, physical, _ = build()
        t = tx()

        def proc(env):
            yield from physical.cpu_service(t, 1.0)

        victim = env.process(proc(env))

        def killer(env):
            yield env.timeout(0.4)
            victim.interrupt("abort")

        env.process(killer(env))
        with pytest.raises(Exception):
            env.run(until=victim)
        assert t.attempt_cpu_time == pytest.approx(0.4)
        # server was released on unwind
        assert physical.cpu.in_use == 0

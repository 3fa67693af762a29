"""Mid-service abort accounting across resource models.

The engine's contract with the physical tier: when a transaction is
interrupted mid-service, the partial service time already consumed is
charged to the attempt, the server is released on unwind, and
``charge_attempt(useful=False)`` books exactly that partial time as
wasted in the utilization trackers. These tests pin the contract for
both legs (disk and CPU) of the one ``read_access`` pipeline, for the
raw ``cpu_service`` leg, for the buffered model's
miss path, and for the distributed configuration (network legs,
remote disk, replicated deferred updates).
"""

import pytest

from repro.core import SimulationParameters
from repro.core.transaction import Transaction
from repro.des import Environment, StreamFactory
from repro.resources import create_resource_model


def build(name="classic", **overrides):
    params = SimulationParameters.table2(
        num_cpus=1, num_disks=2, resource_model=name, **overrides
    )
    env = Environment()
    model = create_resource_model(name, env, params, StreamFactory(5))
    return env, model, params


def tx():
    return Transaction(1, 0, read_set=(1,), write_set=())


def interrupt_at(env, victim, when):
    def killer(env):
        yield env.timeout(when)
        victim.interrupt("abort")

    env.process(killer(env))
    with pytest.raises(Exception):
        env.run(until=victim)


def assert_all_released(model):
    for cpu in getattr(model, "node_cpus", (model.cpu,)):
        assert cpu.in_use == 0
    for disk in model.disks:
        assert disk.in_use == 0
        assert disk.queue_length == 0
    assert model.cpu_tracker.busy_now == 0
    assert model.disk_tracker.busy_now == 0


class TestClassicReadAccess:
    def test_abort_during_disk_leg(self):
        env, model, params = build()
        t = tx()
        cut = 0.4 * params.obj_io
        victim = env.process(model.read_access(t, 1))
        interrupt_at(env, victim, cut)

        assert t.attempt_disk_time == pytest.approx(cut)
        assert t.attempt_cpu_time == 0.0
        assert_all_released(model)

        model.charge_attempt(t, useful=False)
        assert model.disk_tracker.wasted_time == pytest.approx(cut)
        assert model.disk_tracker.useful_time == 0.0
        assert model.cpu_tracker.wasted_time == 0.0

    def test_abort_during_cpu_leg(self):
        env, model, params = build()
        t = tx()
        cut = params.obj_io + 0.5 * params.obj_cpu
        victim = env.process(model.read_access(t, 1))
        interrupt_at(env, victim, cut)

        # Disk leg completed in full; CPU leg was cut halfway.
        assert t.attempt_disk_time == pytest.approx(params.obj_io)
        assert t.attempt_cpu_time == pytest.approx(0.5 * params.obj_cpu)
        assert_all_released(model)

        model.charge_attempt(t, useful=False)
        assert model.disk_tracker.wasted_time == pytest.approx(
            params.obj_io
        )
        assert model.cpu_tracker.wasted_time == pytest.approx(
            0.5 * params.obj_cpu
        )
        assert model.cpu_tracker.useful_time == 0.0


class TestGenericLegs:
    def test_abort_during_cpu_service(self):
        env, model, _ = build()
        t = tx()
        victim = env.process(model.cpu_service(t, 1.0))
        interrupt_at(env, victim, 0.4)

        assert t.attempt_cpu_time == pytest.approx(0.4)
        assert_all_released(model)
        model.charge_attempt(t, useful=False)
        assert model.cpu_tracker.wasted_time == pytest.approx(0.4)

    def test_abort_while_queued_charges_nothing(self):
        env, model, _ = build()
        holder, waiter = tx(), tx()
        env.process(model.cpu_service(holder, 1.0))
        victim = env.process(model.cpu_service(waiter, 1.0))
        interrupt_at(env, victim, 0.5)  # still in queue at 0.5

        assert waiter.attempt_cpu_time == 0.0
        model.charge_attempt(waiter, useful=False)
        assert model.cpu_tracker.wasted_time == 0.0


class TestBufferedMissPath:
    def test_abort_during_miss_disk_leg(self):
        env, model, params = build("buffered", buffer_capacity=10)
        t = tx()
        cut = 0.5 * params.obj_io
        victim = env.process(model.read_access(t, 7))
        interrupt_at(env, victim, cut)

        assert t.attempt_disk_time == pytest.approx(cut)
        assert t.attempt_cpu_time == 0.0
        assert_all_released(model)
        # The transfer never completed: the page must NOT be resident.
        reader = tx()
        done = env.process(model.read_access(reader, 7))
        env.run(until=done)
        assert model.buffer_hits == 0
        assert model.buffer_misses == 2

        model.charge_attempt(t, useful=False)
        assert model.disk_tracker.wasted_time == pytest.approx(cut)


#: Three sites, two copies per object, 10 ms mean network legs.
SHARDED = dict(nodes=3, replication_factor=2, network_delay=0.01)
#: Object 400's primary is node 1 (contiguous: 400 * 3 // 1000), its
#: second copy node 2; a transaction with id 0 is homed at node 0, so
#: it reads the object from node 1 and writes both copies remotely.
REMOTE_OBJ = 400


def sharded_tx():
    return Transaction(
        0, 0, read_set=(REMOTE_OBJ,), write_set=frozenset((REMOTE_OBJ,))
    )


def leg_delays(count):
    """The first ``count`` network-leg delays a fresh sharded model draws.

    Every model built by :func:`build` with the same seed draws the same
    ``resources.network`` sequence, so these are the delays the model
    under test will draw too.
    """
    env, model, _ = build("distributed", **SHARDED)
    delays = []

    def legs(env):
        for _ in range(count):
            before = model.network_time
            yield model.network_leg(sharded_tx(), 0, 1)
            delays.append(model.network_time - before)

    env.run(until=env.process(legs(env)))
    return delays


class TestDistributedComposites:
    def test_placement_makes_the_accesses_remote(self):
        _, model, _ = build("distributed", **SHARDED)
        t = sharded_tx()
        assert model.home_node(t) == 0
        assert model._read_from[0][REMOTE_OBJ] == 1
        assert model._replicas[REMOTE_OBJ] == [1, 2]

    def test_abort_during_request_leg(self):
        (leg,) = leg_delays(1)
        env, model, _ = build("distributed", **SHARDED)
        t = sharded_tx()
        victim = env.process(model.read_access(t, REMOTE_OBJ))
        interrupt_at(env, victim, 0.5 * leg)

        # In flight on the wire: no server was ever held.
        assert model.messages_sent == 1
        assert t.attempt_disk_time == 0.0
        assert t.attempt_cpu_time == 0.0
        assert_all_released(model)
        model.charge_attempt(t, useful=False)
        assert model.disk_tracker.wasted_time == 0.0
        assert model.cpu_tracker.wasted_time == 0.0

    def test_abort_during_remote_disk(self):
        (leg,) = leg_delays(1)
        env, model, params = build("distributed", **SHARDED)
        t = sharded_tx()
        victim = env.process(model.read_access(t, REMOTE_OBJ))
        interrupt_at(env, victim, leg + 0.4 * params.obj_io)

        # The request leg arrived, the data leg never left.
        assert model.messages_sent == 1
        assert t.attempt_disk_time == pytest.approx(0.4 * params.obj_io)
        assert t.attempt_cpu_time == 0.0
        assert_all_released(model)
        model.charge_attempt(t, useful=False)
        assert model.disk_tracker.wasted_time == pytest.approx(
            0.4 * params.obj_io
        )
        assert model.disk_tracker.useful_time == 0.0
        assert model.cpu_tracker.wasted_time == 0.0

    def test_abort_during_second_replica_update(self):
        first, second = leg_delays(2)
        env, model, params = build("distributed", **SHARDED)
        t = sharded_tx()
        victim = env.process(model.deferred_update(t, REMOTE_OBJ))
        cut = first + params.obj_io + second + 0.5 * params.obj_io
        interrupt_at(env, victim, cut)

        # Node 1's copy was written in full; node 2's was cut halfway.
        assert model.messages_sent == 2
        assert t.attempt_disk_time == pytest.approx(1.5 * params.obj_io)
        assert_all_released(model)
        model.charge_attempt(t, useful=False)
        assert model.disk_tracker.wasted_time == pytest.approx(
            1.5 * params.obj_io
        )

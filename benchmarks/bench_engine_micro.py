"""Microbenchmarks of the simulation substrates.

These are true pytest-benchmark measurements (many rounds) of the hot
paths everything else is built on: the event loop, the process
machinery, resource queueing, the lock manager, deadlock detection, and
workload generation. They catch performance regressions that would make
the figure sweeps intolerably slow.
"""

from repro.cc import BlockingCC, LockManager, LockMode, build_waits_for
from repro.core import SimulationParameters, WorkloadGenerator
from repro.des import Environment, Resource, StreamFactory

from tests.cc.conftest import FakeTx


def test_event_loop_throughput(benchmark):
    """Schedule and drain 10,000 timeouts."""

    def run():
        env = Environment()
        for i in range(10_000):
            env.timeout(i * 0.001)
        env.run()
        return env.now

    assert benchmark(run) > 0


def test_process_switching(benchmark):
    """Two processes ping-ponging through 2,000 timeouts."""

    def run():
        env = Environment()

        def ticker(env):
            for _ in range(1000):
                yield env.timeout(0.001)

        env.process(ticker(env))
        env.process(ticker(env))
        env.run()
        return env.now

    benchmark(run)


def test_resource_contention(benchmark):
    """100 processes contending for a 4-server pool."""

    def run():
        env = Environment()
        pool = Resource(env, capacity=4)

        def worker(env):
            for _ in range(10):
                service = pool.serve(0.01)
                try:
                    yield service
                finally:
                    pool.finish(service)

        for _ in range(100):
            env.process(worker(env))
        env.run()
        return env.now

    benchmark(run)


def test_lock_manager_acquire_release(benchmark):
    """1,000 uncontended acquire/release cycles."""
    env = Environment()

    def run():
        lm = LockManager(env)
        txs = [FakeTx() for _ in range(10)]
        for i in range(1000):
            tx = txs[i % 10]
            lm.acquire(tx, i % 50, LockMode.SHARED)
            if i % 10 == 9:
                lm.release_all(tx)
        for tx in txs:
            lm.release_all(tx)

    benchmark(run)


def test_deadlock_detection_cost(benchmark):
    """Waits-for graph build over a loaded lock table."""
    env = Environment()
    lm = LockManager(env)
    holders = [FakeTx() for _ in range(50)]
    for i, tx in enumerate(holders):
        lm.acquire(tx, i, LockMode.EXCLUSIVE)
    waiters = [FakeTx() for _ in range(50)]
    for i, tx in enumerate(waiters):
        lm.acquire(tx, i, LockMode.EXCLUSIVE)  # all queued

    def run():
        return build_waits_for(lm)

    graph = benchmark(run)
    assert len(graph) == 50


def test_workload_generation_rate(benchmark):
    """Draw 1,000 transaction specs with Table 2 parameters."""
    gen = WorkloadGenerator(
        SimulationParameters.table2(), StreamFactory(1)
    )

    def run():
        for _ in range(1000):
            gen.spec()

    benchmark(run)


def test_full_model_bus_fast_path(benchmark):
    """A complete SystemModel run with no subscriber attached.

    End-to-end guard of the instrumentation bus's near-zero-overhead
    guarantee: the engine records its metrics in line, every lifecycle
    emit returns after one dict lookup, and the optional high-volume
    kinds (commit points, CC grants, resource busy/idle) must be
    skipped before their fields are built.  ``BENCH_engine.json`` at the repo
    root pins a reference baseline; CI uploads each run's numbers as an
    artifact for cross-commit comparison, and
    ``check_bench_regression.py`` fails the build if this benchmark
    regresses more than 10% against the baseline.
    """
    from repro.core import SystemModel

    params = SimulationParameters(
        db_size=200, min_size=4, max_size=8, write_prob=0.25,
        num_terms=25, mpl=10, ext_think_time=1.0,
        obj_io=0.01, obj_cpu=0.005, num_cpus=None, num_disks=None,
    )

    def run():
        model = SystemModel(params, "blocking", seed=11)
        model.run_until(25.0)
        return model.metrics.commits.total

    assert benchmark(run) > 0


def test_blocking_cc_request_path(benchmark):
    """The lock-request fast path through a full BlockingCC."""
    env = Environment()

    def run():
        cc = BlockingCC().attach(env)
        txs = [FakeTx() for _ in range(20)]
        for i in range(500):
            tx = txs[i % 20]
            cc.read_request(tx, (i * 7) % 200)
            if i % 20 == 19:
                cc.finalize_commit(tx)
        for tx in txs:
            cc.finalize_commit(tx)

    benchmark(run)

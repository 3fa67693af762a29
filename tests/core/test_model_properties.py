"""Property-based tests over randomized whole-model configurations.

hypothesis generates small but varied configurations (sizes, write
probabilities, resource counts, algorithms); every run must satisfy the
model's conservation laws and accounting invariants regardless of the
draw. These catch cross-cutting bugs no targeted unit test anticipates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SimulationParameters, SystemModel
from repro.obs import InvariantChecker
from tests.core.test_engine import CommitLog

ALGORITHMS = (
    "blocking",
    "immediate_restart",
    "optimistic",
    "basic_to",
    "mvto",
    "wound_wait",
    "wait_die",
    "static_locking",
)


@st.composite
def model_configs(draw):
    db_size = draw(st.integers(min_value=30, max_value=300))
    max_size = draw(st.integers(min_value=2, max_value=min(8, db_size)))
    min_size = draw(st.integers(min_value=1, max_value=max_size))
    return dict(
        params=SimulationParameters(
            db_size=db_size,
            min_size=min_size,
            max_size=max_size,
            write_prob=draw(
                st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.8])
            ),
            num_terms=draw(st.integers(min_value=2, max_value=12)),
            mpl=draw(st.integers(min_value=1, max_value=10)),
            ext_think_time=draw(st.sampled_from([0.05, 0.2, 0.5])),
            int_think_time=draw(st.sampled_from([0.0, 0.0, 0.1])),
            obj_io=0.008,
            obj_cpu=0.004,
            num_cpus=draw(st.sampled_from([None, 1, 2])),
            num_disks=draw(st.sampled_from([None, 1, 3])),
        ),
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


@settings(max_examples=25, deadline=None)
@given(config=model_configs())
def test_invariants_hold_for_any_configuration(config):
    # Strict checking raises at the first broken invariant, the serial
    # replay of the committed transactions included.
    checker = InvariantChecker(mode="strict")
    log = CommitLog()
    model = SystemModel(
        config["params"], config["algorithm"], seed=config["seed"],
        subscribers=(checker, log),
    )
    model.run_until(15.0)
    metrics = model.metrics
    params = config["params"]

    # Conservation: you cannot commit what was never generated, and
    # everything in the system is accounted for.
    assert metrics.commits.total <= model.workload.generated
    assert 0 <= model.active_count <= params.mpl
    in_flight = model.active_count + len(model.ready_queue)
    assert in_flight <= params.num_terms

    # Utilization accounting: fractions in [0, 1], useful <= total.
    if model.env.now > 0:
        cpu = model.physical.cpu_tracker
        disk = model.physical.disk_tracker
        for tracker in (cpu, disk):
            total = tracker.utilization(0.0, 0.0)
            useful = tracker.useful_utilization(0.0, 0.0)
            assert 0.0 <= useful <= total + 1e-9
            assert total <= 1.0 + 1e-9

    # Response times are positive and no larger than the whole run.
    if metrics.response_times.count:
        assert metrics.response_times.min > 0.0
        assert metrics.response_times.max <= model.env.now

    # Ratio sanity: blocks/restarts are non-negative counters.
    assert metrics.blocks.total >= 0
    assert metrics.restarts.total >= 0

    # Every committed transaction is well-formed, and the committed
    # transactions replay serially without violations (noop excluded
    # from ALGORITHMS), final state included.
    for tx in log.transactions:
        assert tx.write_set <= set(tx.read_set)
        assert tx.install_write_set <= tx.write_set
    report = checker.report()
    assert report["violations"] == []
    if metrics.commits.total:
        assert report["serializability"]["reads"] > 0


@settings(max_examples=10, deadline=None)
@given(config=model_configs())
def test_determinism_for_any_configuration(config):
    def run():
        model = SystemModel(
            config["params"], config["algorithm"], seed=config["seed"]
        )
        model.run_until(8.0)
        return (
            model.metrics.commits.total,
            model.metrics.restarts.total,
            model.metrics.blocks.total,
            round(model.metrics.response_times.mean, 9),
        )

    assert run() == run()


@settings(max_examples=10, deadline=None)
@given(
    mpl=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=999),
)
def test_read_only_workload_never_conflicts(mpl, seed):
    params = SimulationParameters(
        db_size=50, min_size=2, max_size=4, write_prob=0.0,
        num_terms=8, mpl=mpl, ext_think_time=0.1,
        obj_io=0.005, obj_cpu=0.002, num_cpus=None, num_disks=None,
    )
    for algorithm in ("blocking", "immediate_restart", "optimistic"):
        model = SystemModel(params, algorithm, seed=seed)
        model.run_until(10.0)
        assert model.metrics.restarts.total == 0
        assert model.metrics.blocks.total == 0
        assert model.metrics.commits.total > 0

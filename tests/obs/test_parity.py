"""Observer-neutrality: subscribers must never perturb results.

The bus's core contract is that every subscriber is a pure observer —
attaching all of them at once (invariant checker with its serial
replay, sampler, unfiltered JSONL sink) must leave a fixed-seed run
bit-identical to a bare run. This is what lets diagnostics be turned
on for a misbehaving sweep point without invalidating the comparison
against its neighbors.
"""

import io

import pytest

from repro.core import RunConfig, SimulationParameters, run_simulation
from repro.obs import InvariantChecker, JsonlSink, TimeSeriesSampler


PARAMS = SimulationParameters(
    db_size=60, min_size=2, max_size=6, write_prob=0.5,
    num_terms=10, mpl=8, ext_think_time=0.2,
    obj_io=0.01, obj_cpu=0.005, num_cpus=None, num_disks=None,
)
RUN = RunConfig(batches=3, batch_time=5.0, warmup_batches=1, seed=1234)


def run_bare(algorithm):
    return run_simulation(PARAMS, algorithm=algorithm, run=RUN)


def run_observed(algorithm):
    sampler = TimeSeriesSampler(interval=0.25)
    sink = JsonlSink(io.StringIO())
    return run_simulation(
        PARAMS, algorithm=algorithm, run=RUN, invariants="strict",
        subscribers=(sampler, sink),
    )


@pytest.mark.parametrize(
    "algorithm", ["blocking", "immediate_restart", "optimistic"]
)
def test_full_observation_is_bit_identical(algorithm):
    bare = run_bare(algorithm)
    observed = run_observed(algorithm)

    assert observed.totals == bare.totals
    assert observed.summary() == bare.summary()
    for name in ("throughput", "response_time", "restart_ratio",
                 "block_ratio"):
        assert observed.analyzer.series(name).values == (
            bare.analyzer.series(name).values
        )


def test_repeated_observed_runs_are_deterministic():
    first = run_observed("blocking")
    second = run_observed("blocking")
    assert first.totals == second.totals
    assert first.summary() == second.summary()


#: The sharded tier with every message-level emitter live: four nodes,
#: two copies of each object, 5 ms network legs, two-phase commit and
#: per-node LRU buffers (whose accounting rides the bus even when
#: nobody else listens).
SHARDED = SimulationParameters.table2(
    db_size=200, num_terms=20, mpl=10, num_cpus=1, num_disks=2,
    resource_model="distributed", nodes=4, replication_factor=2,
    network_delay=0.005, commit_protocol="2pc", buffer_capacity=64,
)
SHARDED_RUN = RunConfig(batches=3, batch_time=20.0, warmup_batches=1, seed=77)


@pytest.mark.parametrize("algorithm", ["blocking", "optimistic"])
def test_message_observers_leave_sharded_runs_bit_identical(algorithm):
    """Message events are built only when observed, and observing them
    changes nothing: a bare run (no message subscriber) and a run under
    the invariant checker plus an unfiltered sink agree exactly."""
    bare = run_simulation(SHARDED, algorithm=algorithm, run=SHARDED_RUN)
    checker = InvariantChecker(mode="strict")
    sink = JsonlSink(io.StringIO())
    observed = run_simulation(
        SHARDED, algorithm=algorithm, run=SHARDED_RUN,
        subscribers=(checker, sink),
    )

    assert observed.totals == bare.totals
    assert observed.summary() == bare.summary()
    assert observed.analyzer.names() == bare.analyzer.names()
    for name in bare.analyzer.names():
        assert observed.analyzer.series(name).values == (
            bare.analyzer.series(name).values
        )
    # The checker saw every message the tier counted.
    messages = bare.totals["network"]["messages"]
    assert messages > 0
    report = checker.report()
    assert report["messages"]["sent"] == messages
    assert report["violations"] == []
    assert report["serializability"]["reads"] > 0

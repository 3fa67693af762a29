"""Observer-neutrality: subscribers must never perturb results.

The bus's core contract is that every subscriber is a pure observer —
attaching all of them at once (history, sampler, unfiltered JSONL sink)
must leave a fixed-seed run bit-identical to a bare run. This is what
lets diagnostics be turned on for a misbehaving sweep point without
invalidating the comparison against its neighbors.
"""

import io

import pytest

from repro.core import RunConfig, SimulationParameters, run_simulation
from repro.obs import JsonlSink, TimeSeriesSampler


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
        PARAMS, algorithm=algorithm, run=RUN,
        record_history=True,
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

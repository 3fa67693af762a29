"""Shared tiny sweep grid for the fast-lane tests.

Small enough that a full classic-vs-batched comparison (two algorithms,
two mpls, a few replications each) stays in test-suite territory, big
enough that blocking and optimistic actually conflict at the higher
mpl.
"""

import hashlib
import json

from repro.core import RunConfig, SimulationParameters
from repro.experiments import ExperimentConfig

GRID_RUN = RunConfig(batches=2, batch_time=5.0, warmup_batches=1, seed=11)


def grid_params():
    return SimulationParameters(
        db_size=200, min_size=4, max_size=8, write_prob=0.25,
        num_terms=10, mpl=5, ext_think_time=0.5,
        obj_io=0.010, obj_cpu=0.005, num_cpus=1, num_disks=2,
    )


def grid_config(**overrides):
    defaults = dict(
        experiment_id="fastlane-grid",
        title="Fast-lane parity grid",
        params=grid_params(),
        algorithms=("blocking", "optimistic"),
        mpls=(2, 5),
        metrics=("throughput",),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def result_fingerprint(result):
    """sha256 over every total and every per-batch series value."""
    payload = {
        "totals": result.totals,
        "series": {
            name: list(result.analyzer.series(name).values)
            for name in sorted(result.analyzer.names())
        },
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def sweep_fingerprints(sweep):
    """{(algorithm, mpl, rep): fingerprint} over every replicate."""
    out = {}
    for (algorithm, mpl), reps in sweep.replicates.items():
        for rep, result in reps.items():
            out[(algorithm, mpl, rep)] = result_fingerprint(result)
    return out

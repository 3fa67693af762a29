"""Per-point traces and time series of replicated sweeps.

A grid point's trajectory is simulated once, so its observers run once:
one trace file per point, one sampler per point. Replication ``r``'s
diagnostics record what they held at ``r``'s end boundary, which must
be exactly what a stand-alone run of replication ``r`` (warmup
``w + r * B``) observes with the same sampler and sink.
"""

import pytest

from repro.core.simulation import run_simulation
from repro.experiments import PointTrace, run_sweep
from repro.experiments import runner as runner_module
from repro.obs import JsonlSink, TimeSeriesSampler

from tests.fastlane.grid import GRID_RUN, grid_config

REPLICATIONS = 3
INTERVAL = 1.0


def standalone(params, algorithm, rep, path):
    """Replication ``rep`` run on its own: (series, trace lines)."""
    run = GRID_RUN.with_changes(
        warmup_batches=GRID_RUN.warmup_batches + rep * GRID_RUN.batches
    )
    sampler = TimeSeriesSampler(interval=INTERVAL)
    with JsonlSink(str(path)) as sink:
        run_simulation(
            params, algorithm=algorithm, run=run,
            subscribers=(sampler, sink),
        )
    return sampler.series(), path.read_text().splitlines()


@pytest.mark.parametrize("workers", [1, 2])
def test_replications_observe_prefixes_of_one_trajectory(
    workers, tmp_path, monkeypatch
):
    opened = []

    class CountingSink(JsonlSink):
        def __init__(self, destination, kinds=None):
            opened.append(destination)
            super().__init__(destination, kinds=kinds)

    monkeypatch.setattr(runner_module, "JsonlSink", CountingSink)
    config = grid_config()
    trace = PointTrace(str(tmp_path / "traces"))
    sweep = run_sweep(
        config, run=GRID_RUN, replications=REPLICATIONS, workers=workers,
        timeseries=INTERVAL, trace=trace,
    )
    for algorithm in config.algorithms:
        for mpl in config.mpls:
            path = trace.point_path(config.experiment_id, algorithm, mpl)
            with open(path) as f:
                lines = f.read().splitlines()
            counts = []
            for rep in range(REPLICATIONS):
                diagnostics = sweep.replicates[(algorithm, mpl)][rep].diagnostics
                series, reference_lines = standalone(
                    config.params_for(mpl), algorithm, rep,
                    tmp_path / f"reference-{algorithm}-{mpl}-{rep}.jsonl",
                )
                assert diagnostics["timeseries"] == {
                    "interval": INTERVAL, "series": series,
                }
                assert diagnostics["trace"]["path"] == path
                events = diagnostics["trace"]["events"]
                assert lines[:events] == reference_lines
                counts.append(events)
            assert counts == sorted(counts)
            assert counts[-1] == len(lines)
    if workers == 1:
        # Each point's file is opened once, not once per replication
        # (forked workers' openings are not visible from here).
        points = len(config.algorithms) * len(config.mpls)
        assert len(opened) == len(set(opened)) == points

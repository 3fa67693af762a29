"""End-to-end sweep benchmarks: the fused point executor.

Replication ``r`` of a point is the ``r``-th ``batches``-sized segment
of one seeded trajectory. A sweep simulates each point's ``w + R*B``
batch-units once and carves every replication from it, where one
``run_simulation`` per replication would re-simulate the trajectory
prefix as warmup and spend ``R*w + B*R*(R+1)/2`` batch-units per point
— about ``(R+1)/2`` times the work when measurement dominates warmup.
Tape sharing adds a few percent on top by drawing each workload
sequence once per process instead of once per point.

``check_bench_regression.py`` gates the two single-process benchmarks
against ``BENCH_sweep.json``; their names predate the one-lane runner
and are kept so the gate's baseline still applies. The ``workers=2``
run on the many-replication grid (points spread over processes,
replications fused within each point) is reported, not gated: its wall
time depends on how many cores the runner has.
"""

from repro.core import RunConfig, SimulationParameters
from repro.experiments import ExperimentConfig, run_sweep

PARAMS = SimulationParameters(
    db_size=200, min_size=4, max_size=8, write_prob=0.25,
    num_terms=10, mpl=5, ext_think_time=0.5,
    obj_io=0.010, obj_cpu=0.005, num_cpus=1, num_disks=2,
)
ALGORITHMS = ("blocking", "immediate_restart", "optimistic")

#: The acceptance grid: 3 algorithms x 5 mpls x 4 replications.
MPLS = (2, 4, 6, 8, 10)
RUN = RunConfig(batches=2, batch_time=5.0, warmup_batches=1, seed=31)

#: The many-replication shape (variance studies): 12 segments per
#: point on a narrower grid, where fusion's asymptotics show.
DEEP_MPLS = (8,)
DEEP_REPLICATIONS = 12


def _config():
    return ExperimentConfig(
        experiment_id="bench-sweep",
        title="Sweep benchmark",
        figures=(0,),
        params=PARAMS,
        algorithms=ALGORITHMS,
        mpls=MPLS,
        metrics=("throughput",),
    )


def _sweep(replications, mpls=MPLS, workers=1):
    sweep = run_sweep(
        _config(), run=RUN, mpls=mpls,
        replications=replications, workers=workers,
    )
    assert all(
        status.status == "ok"
        for status in sweep.replicate_statuses.values()
    )
    return sweep


def test_sweep_batched_lane_r4(benchmark):
    sweep = benchmark.pedantic(
        lambda: _sweep(4), rounds=1, iterations=1
    )
    assert len(sweep.replicate_statuses) == 3 * 5 * 4


def test_sweep_batched_lane_r12(benchmark):
    sweep = benchmark.pedantic(
        lambda: _sweep(DEEP_REPLICATIONS, mpls=DEEP_MPLS),
        rounds=1, iterations=1,
    )
    assert len(sweep.replicate_statuses) == 3 * DEEP_REPLICATIONS


def test_sweep_workers2_r12(benchmark):
    sweep = benchmark.pedantic(
        lambda: _sweep(DEEP_REPLICATIONS, mpls=DEEP_MPLS, workers=2),
        rounds=1, iterations=1,
    )
    assert len(sweep.replicate_statuses) == 3 * DEEP_REPLICATIONS

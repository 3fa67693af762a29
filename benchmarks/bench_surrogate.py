"""Microbenchmarks of the analytic surrogate.

The exploration driver's promise is throughput: the default space's
113,400 surrogate evaluations in about 4.8 s (42 us per evaluation,
median of 3 runs on a 2-vCPU Xeon host). These benchmarks pin that
cost — one contended prediction (the Illinois root find over the
fixed-m Schweitzer solver) and a small exploration block (the full
streaming pipeline: cross product, optimal-mpl tracking, uncertainty
flagging, crossover detection) — so a solver regression that would
quietly turn the minute-scale sweep into an hour-scale one fails CI.
"""

from repro.analytic.contention import surrogate_prediction
from repro.analytic.explore import ExplorationSpace, explore
from repro.core import SimulationParameters

CONTENDED = SimulationParameters.table2(db_size=300, mpl=50)

#: A mid-size exploration block: 16 configurations x 3 mpls x
#: 3 algorithms = 144 evaluations — enough work to be stable on
#: shared runners, small enough to run in tens of milliseconds.
BLOCK = ExplorationSpace(
    db_sizes=(250, 1000, 4000, 8000),
    max_sizes=(8, 16),
    num_disks=(1, 8),
    num_cpus=(1,),
    write_probs=(0.25,),
    ext_think_times=(1.0,),
    mpls=(5, 25, 100),
    algorithms=("blocking", "immediate_restart", "optimistic"),
)


def test_surrogate_single_prediction(benchmark):
    """One contended blocking prediction (closed + capped solves)."""

    def run():
        return surrogate_prediction(CONTENDED, "blocking").throughput

    assert benchmark(run) > 0.0


def test_surrogate_explore_block(benchmark):
    """A 144-evaluation exploration block through the full pipeline."""

    def run():
        return explore(space=BLOCK)

    report = benchmark(run)
    assert report.evaluations == BLOCK.size()
    assert len(report.optimal) == BLOCK.config_count()

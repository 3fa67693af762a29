"""What a sweep runs: a grid of points, each with its own key, params
and algorithm.

An :class:`ExperimentConfig` sweeps one preset over ``(algorithm,
mpl)``; the figure registry in :mod:`repro.experiments.figures` maps
every figure of the paper's evaluation (Figures 3-21) to one of these
presets. A :class:`FixedGrid` holds a finding's arms. Table 2's base
settings come from :meth:`repro.core.SimulationParameters.table2`.
"""

from dataclasses import dataclass
from typing import NamedTuple, Tuple

from repro.cc import PAPER_ALGORITHMS
from repro.core import (
    DELAY_MODE_ADAPTIVE_ALL,
    PAPER_MPLS,
    SimulationParameters,
)
from repro.faults import DiskFaultSpec, FaultSpec


class GridPoint(NamedTuple):
    """One point of a sweep's grid."""

    #: Names the point in the sweep's results, checkpoint lines and
    #: retry seeds: ``(algorithm, mpl)`` in an experiment's grid.
    key: Tuple
    params: SimulationParameters
    #: A CC registry name, or a picklable factory of a CC instance
    #: (called afresh for every attempt).
    algorithm: object


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: parameters x algorithms x multiprogramming levels."""

    experiment_id: str
    title: str
    params: SimulationParameters
    algorithms: Tuple[str, ...] = PAPER_ALGORITHMS
    mpls: Tuple[int, ...] = PAPER_MPLS
    #: The output variables the sweep's report tabulates.
    metrics: Tuple[str, ...] = ("throughput",)
    notes: str = ""
    #: Unused: the figure registry is the one figure table. Accepted
    #: only because ``perfbench/tests`` builds a config with
    #: ``figures=()``; drop it with the next perfbench change.
    figures: Tuple[int, ...] = ()

    def params_for(self, mpl):
        return self.params.with_changes(mpl=mpl)

    def point(self, key):
        """The grid point of key ``(algorithm, mpl)``."""
        algorithm, mpl = key
        return GridPoint(key, self.params_for(mpl), algorithm)

    @staticmethod
    def point_name(key):
        """A key as progress lines print it: ``blocking mpl=25``."""
        algorithm, mpl = key
        return f"{algorithm} mpl={mpl}"

    def grid(self, mpls=None, algorithms=None):
        """Every ``(algorithm, mpl)`` point, algorithm-major; ``mpls``
        and ``algorithms`` restrict the preset's own."""
        return [
            self.point((algorithm, mpl))
            for algorithm in (
                self.algorithms if algorithms is None else algorithms
            )
            for mpl in (self.mpls if mpls is None else mpls)
        ]


@dataclass(frozen=True)
class FixedGrid:
    """Fixed points keyed ``(label, algorithm label)``: a finding's
    arms. No preset (``params`` is None): a sweep file binds the
    points' params fingerprints alone."""

    experiment_id: str
    points: Tuple[GridPoint, ...]
    params = None

    def point(self, key):
        for point in self.points:
            if point.key == key:
                return point
        raise KeyError(key)

    @staticmethod
    def point_name(key):
        """A key as progress lines print it: ``label [algorithm]``."""
        label, algorithm = key
        return f"{label} [{algorithm}]"

    def grid(self, mpls=None, algorithms=None):
        if mpls is not None or algorithms is not None:
            raise ValueError(
                f"{self.experiment_id}: a fixed grid takes no mpl or "
                "algorithm restriction"
            )
        return list(self.points)


def _table2(**overrides):
    return SimulationParameters.table2(**overrides)


def experiment_configs():
    """All experiment presets keyed by experiment id."""
    configs = [
        ExperimentConfig(
            experiment_id="exp1_low_conflict_infinite",
            title="Experiment 1: Low Conflict (Infinite Resources)",
            params=_table2(db_size=10_000, num_cpus=None, num_disks=None),
            metrics=("throughput",),
            notes=(
                "db_size=10,000 makes conflicts rare; all three "
                "algorithms should be close (Figure 3)."
            ),
        ),
        ExperimentConfig(
            experiment_id="exp1_low_conflict_finite",
            title="Experiment 1: Low Conflict (1 CPU, 2 Disks)",
            params=_table2(db_size=10_000),
            metrics=("throughput",),
            notes=(
                "Finite-resource low-conflict case; blocking slightly "
                "ahead (Figure 4)."
            ),
        ),
        ExperimentConfig(
            experiment_id="exp2_infinite",
            title="Experiment 2: Infinite Resources",
            params=_table2(num_cpus=None, num_disks=None),
            metrics=(
                "throughput",
                "block_ratio",
                "restart_ratio",
                "response_time",
                "response_time_std",
            ),
            notes=(
                "Optimistic keeps climbing; blocking thrashes from "
                "blocking (not restarts); immediate-restart plateaus "
                "(Figures 5-7)."
            ),
        ),
        ExperimentConfig(
            experiment_id="exp3_finite",
            title="Experiment 3: Resource-Limited (1 CPU, 2 Disks)",
            params=_table2(),
            metrics=(
                "throughput",
                "disk_util",
                "disk_util_useful",
                "response_time",
                "response_time_std",
            ),
            notes=(
                "Blocking peaks highest (paper: at mpl=25, disks ~97% "
                "total / ~92% useful); restart strategies peak at "
                "mpl=10 (Figures 8-10)."
            ),
        ),
        ExperimentConfig(
            experiment_id="exp3_adaptive_delay",
            title="Experiment 3: Adaptive Restart Delays for All",
            params=_table2(restart_delay_mode=DELAY_MODE_ADAPTIVE_ALL),
            metrics=("throughput",),
            notes=(
                "Adding the adaptive restart delay to blocking and "
                "optimistic arrests thrashing; blocking emerges the "
                "clear winner (Figure 11)."
            ),
        ),
        ExperimentConfig(
            experiment_id="exp4_5cpu_10disk",
            title="Experiment 4: Multiple Resources (5 CPUs, 10 Disks)",
            params=_table2(num_cpus=5, num_disks=10),
            metrics=("throughput", "disk_util", "disk_util_useful"),
            notes=(
                "Similar shape to 1 CPU/2 disks; blocking still has the "
                "best peak (Figures 12-13)."
            ),
        ),
        ExperimentConfig(
            experiment_id="exp4_25cpu_50disk",
            title="Experiment 4: Multiple Resources (25 CPUs, 50 Disks)",
            params=_table2(num_cpus=25, num_disks=50),
            metrics=("throughput", "disk_util", "disk_util_useful"),
            notes=(
                "With utilizations in the 30% range the system behaves "
                "like infinite resources: optimistic's best throughput "
                "edges past blocking's (Figures 14-15)."
            ),
        ),
        ExperimentConfig(
            experiment_id="exp5_think_1s",
            title="Experiment 5: Interactive (1 s Internal Think)",
            params=_table2(int_think_time=1.0, ext_think_time=3.0),
            metrics=("throughput", "disk_util", "disk_util_useful"),
            notes="Blocking still best at 1 s think time (Figure 16).",
        ),
        ExperimentConfig(
            experiment_id="exp5_think_5s",
            title="Experiment 5: Interactive (5 s Internal Think)",
            params=_table2(int_think_time=5.0, ext_think_time=11.0),
            metrics=("throughput", "disk_util", "disk_util_useful"),
            notes="Optimistic overtakes blocking at 5 s (Figure 18).",
        ),
        ExperimentConfig(
            experiment_id="exp6_disk_faults",
            title="Experiment 6: Disk Failures (Blocking vs. Optimistic)",
            params=_table2(
                faults=FaultSpec(disk=DiskFaultSpec(mttf=60.0, mttr=5.0))
            ),
            algorithms=("blocking", "optimistic"),
            metrics=("throughput", "disk_util", "restart_ratio"),
            notes=(
                "Beyond the paper: Table 2 resources, but each disk "
                "crashes about once a minute (MTTF 60 s) and repairs in "
                "~5 s. Downtime stalls the failed disk's queue, so "
                "lock-holding transactions wait and contention spreads; "
                "the blocking-vs-optimistic verdict is re-examined with "
                "availability in the picture."
            ),
        ),
        ExperimentConfig(
            experiment_id="exp7_buffered",
            title="Experiment 7: Buffer Pool (LRU, 25% of the Database)",
            params=_table2(
                resource_model="buffered", buffer_capacity=250
            ),
            metrics=("throughput", "disk_util", "response_time"),
            notes=(
                "Beyond the paper: Table 2 resources behind an LRU "
                "buffer pool of 250 pages (a quarter of the database). "
                "Re-read hits skip the disk entirely, so the effective "
                "I/O per transaction falls with the hit ratio and the "
                "finite-resource verdict drifts toward the "
                "infinite-resource one; the report's buffer table "
                "shows the realized hit ratio per point."
            ),
        ),
        ExperimentConfig(
            experiment_id="exp8_skewed_disks",
            title="Experiment 8: Hot Spindles (Skewed Placement + Hotspot)",
            params=_table2(
                resource_model="skewed_disks",
                hot_fraction=0.1,
                hot_access_prob=0.5,
            ),
            metrics=("throughput", "disk_util", "restart_ratio"),
            notes=(
                "Beyond the paper: the Section 6.2 hotspot workload "
                "(50% of accesses to 10% of the data) on contiguous "
                "object-to-disk placement, so the hot data lives on one "
                "spindle and data skew becomes resource skew. Compare "
                "against exp3_finite (classic placement spreads the "
                "same accesses uniformly)."
            ),
        ),
        ExperimentConfig(
            experiment_id="exp9_open_poisson",
            title="Experiment 9: Open Poisson Arrivals (Table 2 Resources)",
            params=_table2(
                workload_model="open_poisson",
                workload_spec={"rate": 5.0},
            ),
            metrics=("throughput", "response_time"),
            notes=(
                "Beyond the paper: the paper's closed terminal pool "
                "replaced by open Poisson arrivals at 5.0 tx/s — "
                "inside blocking's capacity at every mpl up to 100 "
                "but above the restart algorithms' capacity from "
                "mpl=25 — with mpl acting as an admission cap "
                "instead of a population size. Points whose capacity "
                "falls below the offered load saturate (the backlog "
                "diverges); the open-system totals and the stability "
                "detector flag them, so the mpl axis reads as 'can "
                "this algorithm carry the offered load at this cap', "
                "not 'where does throughput peak'."
            ),
        ),
        ExperimentConfig(
            experiment_id="exp10_heavy_tailed",
            title="Experiment 10: Heavy-Tailed Workload (web_sessions)",
            params=_table2(
                workload_model="heavy_tailed",
                workload_spec={"preset": "web_sessions"},
            ),
            metrics=(
                "throughput",
                "restart_ratio",
                "response_time",
                "response_time_std",
            ),
            notes=(
                "Beyond the paper: the exponential think times and "
                "uniform transaction sizes replaced by the "
                "web_sessions preset (lognormal think, CV 3; Pareto "
                "sizes, shape 1.5). Rare huge transactions hold locks "
                "(or optimistic read sets) far longer than the uniform "
                "model ever produces, so conflict-ratio and "
                "variance-of-response conclusions drawn from the "
                "uniform workload are re-examined under a realistic "
                "tail."
            ),
        ),
        ExperimentConfig(
            experiment_id="exp11_sharded",
            title="Experiment 11: Sharded Multi-Site (4 Nodes, 2PC)",
            params=_table2(
                resource_model="distributed",
                nodes=4,
                network_delay=0.005,
                commit_protocol="2pc",
            ),
            metrics=("throughput", "restart_ratio", "response_time"),
            notes=(
                "Beyond the paper: the Table 2 database sharded "
                "contiguously across 4 nodes (CPU and disks split "
                "evenly), every cross-node access charged an "
                "exponential 5 ms network leg, and every multi-node "
                "commit paying the two-phase-commit handshake (one "
                "prepare/vote round trip per remote participant plus "
                "a decision message) while its locks stay held. The "
                "question is whether the paper's single-site verdict "
                "— blocking beats restarts under finite resources — "
                "survives when the commit point itself stretches "
                "across a network. Compare against the same grid at "
                "nodes=1 (identical to classic) and N in {2, 8}."
            ),
        ),
        ExperimentConfig(
            experiment_id="exp12_replica_reads",
            title="Experiment 12: Replicated Reads (4 Nodes, RF=2, 2PC)",
            params=_table2(
                resource_model="distributed",
                nodes=4,
                network_delay=0.005,
                commit_protocol="2pc",
                replication_factor=2,
            ),
            metrics=("throughput", "restart_ratio", "response_time"),
            notes=(
                "Beyond the paper: exp11 plus a second copy of every "
                "object on the next node of the ring. Reads go to the "
                "nearest replica (often the home node itself, saving "
                "both network legs); writes install on every copy and "
                "drag the extra replica nodes into the 2PC "
                "participant set. The trade this sweep exposes: "
                "replication buys read locality but taxes the commit "
                "path, so write-heavy mixes can lose throughput to "
                "the same mechanism that speeds read-heavy ones."
            ),
        ),
        ExperimentConfig(
            experiment_id="exp5_think_10s",
            title="Experiment 5: Interactive (10 s Internal Think)",
            params=_table2(int_think_time=10.0, ext_think_time=21.0),
            metrics=("throughput", "disk_util", "disk_util_useful"),
            notes="Optimistic clearly best at 10 s (Figure 20).",
        ),
    ]
    return {config.experiment_id: config for config in configs}


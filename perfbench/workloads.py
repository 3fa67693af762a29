"""The benchmark's four workloads: inputs from a seed, one pass, its digests.

Each workload builds its inputs from the seed (:meth:`Workload.build`,
the set-up) and runs one *pass* over them (:meth:`Workload.run`, the
timed unit the benchmark repeats; it calls ``lap`` after each of its
pieces so each piece can be timed on its own). :meth:`Workload.outcome` then reads
the pass's results, untimed: a pass is a list of operations -- one
model run, one sweep replication or one explore call -- and each one
yields a sha256 digest of every simulated statistic it produced.
Passes over the same inputs must reproduce the same digests; a pass
with ``strict=True`` attaches the invariant checker, which only
observes, so its digests must match too, and it must report no
violation outside ``TOLERATED_INVARIANTS``.
"""

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: The seed whose digests are pinned in ``golden.json``.
DEFAULT_SEED = 1

PAPER_ALGORITHMS = ("blocking", "immediate_restart", "optimistic")

#: Invariants the check pass tolerates. The checker's lock table drops a
#: transaction's grants at its restart event, but blocking releases a
#: deadlock victim's locks when it picks the victim, so a waiter granted
#: at that same instant reads as a double grant (contention_infinite,
#: seed 25: blocking, t=12.2933).
TOLERATED_INVARIANTS = ("lock_exclusivity",)


def digest(payload):
    """sha256 of the canonical JSON form of ``payload``.

    ``json`` writes floats with ``repr``, which round-trips exactly, so
    two payloads share a digest only if every statistic is bit-identical.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class PassOutcome:
    """What one pass produced."""

    #: Operation key -> digest of its simulated statistics.
    digests: Dict[str, str] = field(default_factory=dict)
    #: Operations that reported a failure: (key, message).
    errors: List[Tuple[str, str]] = field(default_factory=list)
    #: Commits in the delivered results (simulation workloads).
    commits: int = 0
    #: Delivered simulated seconds (simulation workloads).
    sim_s: float = 0.0
    #: Surrogate evaluations (explore workload).
    evaluations: int = 0


class Workload:
    """One named workload of the benchmark."""

    name = None
    #: False when the inputs do not depend on the seed.
    seeded = True

    def build(self, seed):
        """The pass inputs for ``seed``."""
        raise NotImplementedError

    def operations(self, inputs):
        """Number of operations one pass performs."""
        raise NotImplementedError

    def run(self, inputs, strict=False, lap=None):
        """One pass over ``inputs``: the program's work, nothing else.

        ``lap()``, when given, is called after each piece of the pass;
        every pass over the same inputs has the same pieces.
        """
        raise NotImplementedError

    def outcome(self, inputs, results, strict=False):
        """The :class:`PassOutcome` of what :meth:`run` returned."""
        raise NotImplementedError

    def units(self, outcome):
        """What ``host_us_per_op`` divides by: delivered commits."""
        return outcome.commits


# -- simulation statistics ----------------------------------------------------


def invariant_problem(report):
    """Why an invariant checker's report fails the check pass, or None."""
    violations = [
        violation for violation in report["violations"]
        if violation["invariant"] not in TOLERATED_INVARIANTS
    ]
    if violations:
        return (f"{len(violations)} invariant violation(s), first: "
                f"{violations[0]['message']}")
    if report["suppressed"]:
        return f"{report['suppressed']} unrecorded invariant violation(s)"
    return None


def result_statistics(result):
    """Every statistic a ``SimulationResult`` carries."""
    analyzer = result.analyzer
    return {
        "algorithm": result.algorithm,
        "batches": {
            name: analyzer.series(name).values for name in analyzer.names()
        },
        "totals": result.totals,
    }


def model_statistics(model, batches):
    """Every statistic of a model driven directly, read through its API."""
    metrics = model.metrics
    physical = model.physical
    now = model.env.now
    return {
        "algorithm": model.cc.name,
        "batches": batches,
        "now": now,
        "commits": metrics.commits.total,
        "restarts": metrics.restarts.total,
        "blocks": metrics.blocks.total,
        "submissions": metrics.submissions.total,
        "restart_reasons": metrics.restart_reasons,
        "generated": model.workload.generated,
        "response": [
            metrics.response_times.mean, metrics.response_times.std,
            metrics.response_p50.value, metrics.response_p95.value,
        ],
        "per_class": metrics.per_class_summary(now),
        "disk": [
            physical.disk_tracker.busy_area(),
            physical.disk_tracker.useful_time,
            physical.disk_tracker.wasted_time,
        ],
        "cpu": [
            physical.cpu_tracker.busy_area(),
            physical.cpu_tracker.useful_time,
            physical.cpu_tracker.wasted_time,
        ],
        "buffer": physical.buffer_summary(),
        "network": physical.network_summary(),
    }


# -- the workloads -------------------------------------------------------------


class PaperSweep(Workload):
    """Experiment 3's grid through ``run_sweep`` with replications."""

    name = "paper_sweep"
    MPLS = (10, 25, 50, 100)
    REPLICATIONS = 4
    WARMUP_BATCHES = 1
    BATCHES = 2
    BATCH_TIME = 3.0

    def build(self, seed):
        from repro.core import RunConfig
        from repro.experiments.configs import experiment_configs

        return {
            "config": experiment_configs()["exp3_finite"],
            "run": RunConfig(
                batches=self.BATCHES, batch_time=self.BATCH_TIME,
                warmup_batches=self.WARMUP_BATCHES, seed=seed,
            ),
        }

    def operations(self, inputs):
        config = inputs["config"]
        return len(config.algorithms) * len(self.MPLS) * self.REPLICATIONS

    def run(self, inputs, strict=False, lap=None):
        from repro.experiments import runner

        # The progress callback fires after every grid point: the pieces.
        return runner.run_sweep(
            inputs["config"], run=inputs["run"], mpls=self.MPLS,
            replications=self.REPLICATIONS, progress=lap,
            invariants="warn" if strict else "off",
        )

    def outcome(self, inputs, results, strict=False):
        from repro.analysis import check_result_against_bounds

        config, run, sweep = inputs["config"], inputs["run"], results
        outcome = PassOutcome(
            sim_s=delivered_sim_seconds(
                run, self.REPLICATIONS,
                len(config.algorithms) * len(self.MPLS),
            )
        )
        last = self.REPLICATIONS - 1
        for algorithm in config.algorithms:
            for mpl in self.MPLS:
                for rep in range(self.REPLICATIONS):
                    key = f"{algorithm}/mpl={mpl}/rep={rep}"
                    status = sweep.replicate_statuses.get(
                        (algorithm, mpl, rep))
                    result = sweep.replicates.get(
                        (algorithm, mpl), {}).get(rep)
                    if result is None or status.attempts != 1:
                        outcome.errors.append((key, f"status {status}"))
                        continue
                    if strict:
                        problem = invariant_problem(
                            result.diagnostics["invariants"])
                        if problem is not None:
                            outcome.errors.append((key, problem))
                        try:
                            check_result_against_bounds(
                                result, tolerance=bounds_tolerance(result)
                            )
                        except AssertionError as error:
                            outcome.errors.append((key, str(error)))
                    outcome.digests[key] = digest(result_statistics(result))
                    if rep == last:
                        # The last replication's cumulative totals cover
                        # the point's whole delivered trajectory.
                        outcome.commits += result.totals["commits"]
        return outcome


def bounds_tolerance(result):
    """Slack for the operational-bounds check of one short replication.

    The throughput ceiling is asymptotic. Within a window of ``W``
    simulated seconds, up to ``mpl`` transactions may commit on service
    they received before the window opened, so measured throughput can
    exceed the ceiling by ``mpl / W`` on top of the usual 5% for
    transaction-size variation.
    """
    from repro.analysis import operational_bounds

    window = result.run.batches * result.run.batch_time
    ceiling = operational_bounds(result.params).throughput_ceiling
    return 0.05 + result.params.mpl / (ceiling * window)


def delivered_sim_seconds(run, replications, points):
    """Simulated seconds a sweep delivers: one trajectory per point.

    A point's ``replications`` results are consecutive segments of one
    trajectory, so ``(warmup + R * batches) * batch_time`` simulated
    seconds per point are output; anything simulated beyond that
    (re-simulated prefixes) is cost.
    """
    per_point = run.warmup_batches + replications * run.batches
    return points * per_point * run.batch_time


def classic_executed_sim_seconds(run, replications, points):
    """Simulated seconds the classic lane runs for the same sweep.

    Replication ``r`` is an independent run with ``warmup + r * batches``
    warmup batches, so every replication re-simulates its prefix:
    ``R * warmup + batches * R * (R + 1) / 2`` batches per point.
    """
    per_point = (
        replications * run.warmup_batches
        + run.batches * replications * (replications + 1) // 2
    )
    return points * per_point * run.batch_time


class _DirectModels(Workload):
    """Models built and driven directly through ``SystemModel.run_until``.

    Each model runs ``SIM_SECONDS`` in ``SEGMENTS`` equal steps; the
    per-step batch values join the digested statistics.
    """

    ALGORITHMS = ()
    SIM_SECONDS = 0.0
    SEGMENTS = 1

    def params(self):
        raise NotImplementedError

    def build(self, seed):
        return {"params": self.params(), "seed": seed}

    def operations(self, inputs):
        return len(self.ALGORITHMS)

    def run(self, inputs, strict=False, lap=None):
        from repro.core.engine import SystemModel
        from repro.obs import InvariantChecker

        params, seed = inputs["params"], inputs["seed"]
        step = self.SIM_SECONDS / self.SEGMENTS
        runs = []
        for algorithm in self.ALGORITHMS:
            checker = InvariantChecker(mode="warn") if strict else None
            model = SystemModel(
                params, algorithm, seed=seed,
                subscribers=(checker,) if strict else (),
            )
            metrics = model.metrics
            batches = []
            for segment in range(1, self.SEGMENTS + 1):
                snapshot = metrics.snapshot()
                model.run_until(segment * step)
                batches.append(metrics.batch_values(snapshot))
                if lap is not None:
                    lap()
            runs.append((algorithm, model, batches, checker))
        return runs

    def outcome(self, inputs, results, strict=False):
        outcome = PassOutcome()
        for algorithm, model, batches, checker in results:
            problem = self.check(model)
            if problem is None and checker is not None:
                problem = invariant_problem(checker.report())
            if problem is not None:
                outcome.errors.append((algorithm, problem))
                continue
            outcome.digests[algorithm] = digest(
                model_statistics(model, batches)
            )
            outcome.commits += model.metrics.commits.total
            outcome.sim_s += model.env.now
        return outcome

    def check(self, model):
        """Why the finished model is not a valid result, or None."""
        if model.metrics.commits.total <= 0:
            return "no commits"
        return None


class ContentionInfinite(_DirectModels):
    """Experiment 2's thrashing regime: infinite resources, mpl 200."""

    name = "contention_infinite"
    ALGORITHMS = PAPER_ALGORITHMS
    SIM_SECONDS = 15.0
    SEGMENTS = 6

    def params(self):
        from repro.experiments.configs import experiment_configs

        return experiment_configs()["exp2_infinite"].params.with_changes(
            mpl=200
        )


class ShardedOpen(_DirectModels):
    """4 nodes, RF 2, 2PC, LRU buffers, open Poisson arrivals.

    The arrival rate stays well below capacity on every seed: at 12 tx/s
    optimistic saturates on some seeds (585430896: 157 transactions in
    the system after 200 s), while at 8 tx/s none of 41 surveyed seeds
    held more than 14 over 300 s.
    """

    name = "sharded_2pc_open"
    ALGORITHMS = ("blocking", "optimistic")
    SIM_SECONDS = 300.0
    SEGMENTS = 8
    ARRIVAL_RATE = 8.0

    def params(self):
        from repro.experiments.configs import experiment_configs

        return experiment_configs()[
            "exp12_replica_reads"
        ].params.with_changes(
            buffer_capacity=64,
            workload_model="open_poisson",
            workload_spec={"rate": self.ARRIVAL_RATE},
            mpl=50,
        )

    def check(self, model):
        from repro.stats import assess_stability

        problem = super().check(model)
        if problem is not None:
            return problem
        metrics = model.metrics
        verdict = assess_stability(
            metrics.submissions.total, metrics.commits.total,
            model.env.now, model.mpl_limit,
        )
        if verdict.saturated:
            return "open arrivals saturated the system"
        return None


class SurrogateExplore(Workload):
    """``explore`` over a slice of the default space (no simulation).

    The slice runs as one explore call per (disks, CPUs) pair, the
    blocks; each block keeps the whole database-size axis, along which
    crossovers are found.
    """

    name = "surrogate_explore"
    seeded = False
    DB_SIZES = (250, 1000, 4000)
    THINK_TIMES = (1.0,)

    def build(self, seed):
        from repro.analytic.explore import default_space

        space = dataclasses.replace(
            default_space(), db_sizes=self.DB_SIZES,
            ext_think_times=self.THINK_TIMES,
        )
        return {
            "blocks": [
                dataclasses.replace(space, num_disks=(disks,),
                                    num_cpus=(cpus,))
                for disks in space.num_disks
                for cpus in space.num_cpus
            ]
        }

    def operations(self, inputs):
        return len(inputs["blocks"])

    def run(self, inputs, strict=False, lap=None):
        from repro.analytic import explore as explore_module

        reports = []
        for block in inputs["blocks"]:
            reports.append(explore_module.explore(space=block))
            if lap is not None:
                lap()
        return reports

    def outcome(self, inputs, results, strict=False):
        outcome = PassOutcome()
        for block, report in zip(inputs["blocks"], results):
            key = f"disks={block.num_disks[0]}/cpus={block.num_cpus[0]}"
            outcome.evaluations += report.evaluations
            if report.evaluations != block.size():
                outcome.errors.append((
                    key, f"{report.evaluations} evaluations, "
                         f"expected {block.size()}",
                ))
                continue
            statistics = dataclasses.asdict(report)
            # The report's own wall clock is the one field that may differ.
            del statistics["elapsed_seconds"]
            outcome.digests[key] = digest(statistics)
        return outcome

    def units(self, outcome):
        return outcome.evaluations


WORKLOADS = {
    workload.name: workload
    for workload in (
        PaperSweep(), ContentionInfinite(), ShardedOpen(), SurrogateExplore()
    )
}

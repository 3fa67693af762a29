"""Bit-parity of the fused point executor against stand-alone runs.

Sweeps simulate each grid point's trajectory once and carve every
replication from it. The claim is "same numbers, less work": every
carved replication must be bit-identical to the independent
``run_simulation`` call that defines it (``warmup_batches = w + r * B``).
These tests pin that claim three ways:

* against the checked-in golden sha256 digests (all three paper
  algorithms, finite and infinite resources) for a single replication;
* per replication against that definition for multi-replication
  points;
* at the ``run_sweep`` level, sequential and multiprocess, replicate
  for replicate — on the classic grid and on the heavy-tailed and
  sharded tiers, whose think times and disk picks the sweep reads
  from its workload tape.
"""

import pytest

from repro.core.simulation import run_simulation
from repro.des import StreamFactory
from repro.experiments import run_sweep
from repro.fastlane import TapeStore, run_point_replications
from repro.workloads import save_workload_trace, trace_record

from tests.fastlane.grid import (
    GRID_RUN,
    grid_config,
    grid_params,
    result_fingerprint,
    sweep_fingerprints,
)
from tests.resources.test_golden_parity import (
    FINITE,
    GOLDEN,
    INFINITE,
    RUN,
    _fingerprint,
)

ALGORITHMS = ("blocking", "immediate_restart", "optimistic")


def _params(resources):
    return FINITE if resources == "finite" else INFINITE


def classic_replication(params, algorithm, run, rep):
    """The classic lane's definition of replication ``rep``."""
    segment = run.with_changes(
        warmup_batches=run.warmup_batches + rep * run.batches
    )
    return run_simulation(params, algorithm=algorithm, run=segment)


class TestFusedTrajectoryParity:
    @pytest.mark.parametrize("algorithm,resources", sorted(GOLDEN))
    def test_single_replication_matches_golden(self, algorithm, resources):
        result = run_point_replications(
            _params(resources), algorithm, RUN, 1
        )[0]
        assert _fingerprint(result) == GOLDEN[(algorithm, resources)]

    @pytest.mark.parametrize("algorithm,resources", sorted(GOLDEN))
    def test_every_carved_replication_matches_classic(
        self, algorithm, resources
    ):
        params = _params(resources)
        carved = run_point_replications(params, algorithm, RUN, 3)
        for rep, result in enumerate(carved):
            classic = classic_replication(params, algorithm, RUN, rep)
            assert _fingerprint(result) == _fingerprint(classic)
            assert result.run == classic.run
            assert result.algorithm == classic.algorithm

    def test_tape_fed_classic_run_matches_golden(self):
        # A tape store alone changes nothing: the tape records the very
        # sequences a stand-alone model draws for itself.
        store = TapeStore()
        for algorithm in ALGORITHMS:
            result = run_point_replications(
                FINITE, algorithm, RUN, 1, tapes=store
            )[0]
            assert _fingerprint(result) == GOLDEN[(algorithm, "finite")]


def reference_fingerprints(config, run, replications):
    """{(algorithm, mpl, rep): fingerprint} of stand-alone runs."""
    return {
        (algorithm, mpl, rep): result_fingerprint(
            classic_replication(
                config.params_for(mpl), algorithm, run, rep
            )
        )
        for algorithm in config.algorithms
        for mpl in config.mpls
        for rep in range(replications)
    }


class TestSweepParity:
    def test_batched_matches_sequential_classic(self):
        config = grid_config()
        sweep = run_sweep(config, run=GRID_RUN, replications=3)
        reference = reference_fingerprints(config, GRID_RUN, 3)
        assert sweep_fingerprints(sweep) == reference
        # Replication 0 keeps its historical home in ``results``.
        for (algorithm, mpl), result in sweep.results.items():
            assert result_fingerprint(result) == (
                reference[(algorithm, mpl, 0)]
            )
        # Every replication is a clean first-attempt success.
        assert set(sweep.replicate_statuses) == set(reference)
        for status in sweep.replicate_statuses.values():
            assert status.status == "ok"
            assert status.attempts == 1

    def test_batched_matches_multiprocess_classic(self):
        config = grid_config()
        fanned = run_sweep(
            config, run=GRID_RUN, replications=2, workers=2
        )
        assert sweep_fingerprints(fanned) == (
            reference_fingerprints(config, GRID_RUN, 2)
        )

    def test_spot_invariants_change_no_results(self):
        plain = run_sweep(
            grid_config(), run=GRID_RUN, replications=2, invariants="off",
        )
        for workers in (1, 2):
            spotted = run_sweep(
                grid_config(), run=GRID_RUN, replications=2,
                invariants="spot", workers=workers,
            )
            assert sweep_fingerprints(spotted) == (
                sweep_fingerprints(plain)
            )

    def test_single_replication_sweep_is_the_classic_sweep(self):
        # replications=1 must still match the plain historical
        # run_simulation per point, byte for byte, results dict included.
        config = grid_config()
        sweep = run_sweep(config, run=GRID_RUN)
        reference = reference_fingerprints(config, GRID_RUN, 1)
        assert set(sweep.results) == {
            (algorithm, mpl) for algorithm, mpl, _ in reference
        }
        for (algorithm, mpl), result in sweep.results.items():
            assert result_fingerprint(result) == (
                reference[(algorithm, mpl, 0)]
            )


#: Tiers whose think times or disk picks the sweep's tape records
#: beyond the classic grid: lognormal thinks, and uniform picks among
#: several disks on every node of a replicated sharded tier.
TAPED_TIERS = {
    "heavy_tailed": grid_params().with_changes(
        workload_model="heavy_tailed",
        workload_spec={"preset": "web_sessions"},
    ),
    "distributed": grid_params().with_changes(
        resource_model="distributed", nodes=4, replication_factor=2,
        network_delay=0.002,
    ),
}


class TestTapedTierParity:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("tier", sorted(TAPED_TIERS))
    def test_sweep_matches_stand_alone_runs(self, tier, workers):
        config = grid_config(params=TAPED_TIERS[tier])
        sweep = run_sweep(
            config, run=GRID_RUN, replications=2, workers=workers
        )
        assert sweep_fingerprints(sweep) == (
            reference_fingerprints(config, GRID_RUN, 2)
        )


def write_trace(path, records=120, seed=5):
    """A cyclic-playback trace of ``records`` grid-timed transactions."""
    draw = StreamFactory(seed).stream("trace-file")
    save_workload_trace(path, [
        trace_record(reads, reads[:1])
        for reads in (
            draw.sample_without_replacement(200, 4) for _ in range(records)
        )
    ])


class TestTracePlaybackParity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_matches_stand_alone_runs(self, tmp_path, workers):
        # Trace content is the model's own, but the sweep's tape still
        # records the disk picks among the 2 disks.
        path = tmp_path / "trace.jsonl"
        write_trace(path)
        params = grid_params().with_changes(
            workload_model="trace",
            workload_spec={"path": str(path), "rate": 8.0, "cycle": True},
        )
        assert params.num_disks == 2
        config = grid_config(params=params)
        sweep = run_sweep(
            config, run=GRID_RUN, replications=2, workers=workers
        )
        assert sweep_fingerprints(sweep) == (
            reference_fingerprints(config, GRID_RUN, 2)
        )


class TestBackendValidation:
    def test_replications_must_be_positive(self):
        with pytest.raises(ValueError, match="replications"):
            run_sweep(grid_config(), run=GRID_RUN, replications=0)

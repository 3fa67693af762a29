"""Tests for multiclass workload mixes."""

import pytest

from repro.core import (
    RunConfig,
    SimulationParameters,
    SystemModel,
    TransactionClass,
    WorkloadGenerator,
    run_simulation,
)
from repro.des import StreamFactory

LOOKUP = TransactionClass("lookup", weight=8.0, min_size=1, max_size=2,
                          write_prob=0.0)
ORDER = TransactionClass("order", weight=2.0, min_size=4, max_size=12,
                         write_prob=0.25)
REPORT = TransactionClass("report", weight=0.5, min_size=30, max_size=50,
                          write_prob=0.0)


def mixed_params(**overrides):
    base = dict(
        db_size=1000,
        num_terms=20,
        mpl=10,
        ext_think_time=0.3,
        obj_io=0.005,
        obj_cpu=0.002,
        num_cpus=None,
        num_disks=None,
        workload_mix=(LOOKUP, ORDER, REPORT),
    )
    base.update(overrides)
    return SimulationParameters(**base)


class TestValidation:
    def test_class_validation(self):
        with pytest.raises(ValueError, match="weight"):
            TransactionClass("x", weight=0.0, min_size=1, max_size=2,
                             write_prob=0.0)
        with pytest.raises(ValueError, match="min_size"):
            TransactionClass("x", weight=1.0, min_size=5, max_size=2,
                             write_prob=0.0)
        with pytest.raises(ValueError, match="write_prob"):
            TransactionClass("x", weight=1.0, min_size=1, max_size=2,
                             write_prob=1.5)
        with pytest.raises(ValueError, match="name"):
            TransactionClass("", weight=1.0, min_size=1, max_size=2,
                             write_prob=0.0)

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SimulationParameters(workload_mix=())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SimulationParameters(workload_mix=(LOOKUP, LOOKUP))

    def test_class_bigger_than_db_rejected(self):
        with pytest.raises(ValueError, match="db_size"):
            SimulationParameters(db_size=20, workload_mix=(REPORT,))

    def test_list_coerced_to_tuple(self):
        params = SimulationParameters(workload_mix=[LOOKUP, ORDER])
        assert isinstance(params.workload_mix, tuple)


class TestDerivedQuantities:
    def test_expected_reads_weighted(self):
        params = SimulationParameters(
            workload_mix=(
                TransactionClass("a", 1.0, 2, 2, 0.0),
                TransactionClass("b", 3.0, 10, 10, 0.5),
            )
        )
        # (1*2 + 3*10) / 4 = 8
        assert params.expected_reads() == pytest.approx(8.0)
        assert params.tran_size == pytest.approx(8.0)
        # writes: (1*0 + 3*10*0.5) / 4 = 3.75
        assert params.expected_writes() == pytest.approx(3.75)

    def test_single_class_unchanged(self):
        params = SimulationParameters.table2()
        assert params.expected_reads() == pytest.approx(8.0)
        assert params.expected_writes() == pytest.approx(2.0)


class TestGeneration:
    def test_class_frequencies_match_weights(self):
        gen = WorkloadGenerator(mixed_params(), StreamFactory(1))
        counts = {"lookup": 0, "order": 0, "report": 0}
        for _ in range(4000):
            counts[gen.spec()[2]] += 1
        total = sum(counts.values())
        assert counts["lookup"] / total == pytest.approx(
            8.0 / 10.5, abs=0.03
        )
        assert counts["report"] / total == pytest.approx(
            0.5 / 10.5, abs=0.02
        )

    def test_bisect_draw_identical_to_linear_scan(self):
        # _draw_class precomputes cumulative weights and bisects; the
        # boundaries are the same left-to-right partial sums the old
        # per-draw loop accumulated, so every seeded draw must map to
        # the same class the linear scan would have picked.
        params = mixed_params()
        gen = WorkloadGenerator(params, StreamFactory(7))
        reference_rng = StreamFactory(7).stream("workload.class")
        mix = params.workload_mix
        total = sum(cls.weight for cls in mix)
        for _ in range(20_000):
            pick = reference_rng.random() * total
            cumulative = 0.0
            expected = mix[-1]
            for cls in mix:
                cumulative += cls.weight
                if pick < cumulative:
                    expected = cls
                    break
            assert gen._draw_class() is expected

    def test_class_parameters_respected(self):
        gen = WorkloadGenerator(mixed_params(), StreamFactory(2))
        for _ in range(500):
            read_set, write_set, tx_class = gen.spec()
            if tx_class == "lookup":
                assert 1 <= len(read_set) <= 2
                assert not write_set
            elif tx_class == "order":
                assert 4 <= len(read_set) <= 12
            else:
                assert 30 <= len(read_set) <= 50
                assert not write_set

    def test_single_class_has_no_class_name(self):
        gen = WorkloadGenerator(
            SimulationParameters.table2(), StreamFactory(3)
        )
        assert gen.spec()[2] is None


class TestPerClassMetrics:
    def test_per_class_stats_collected(self):
        result = run_simulation(
            mixed_params(),
            "blocking",
            RunConfig(batches=3, batch_time=10.0, warmup_batches=0,
                      seed=4),
        )
        per_class = result.totals["per_class"]
        assert set(per_class) == {"lookup", "order", "report"}
        for stats in per_class.values():
            assert stats["commits"] > 0
            assert stats["response_mean"] > 0
        # Tiny lookups respond much faster than the big reports.
        assert per_class["lookup"]["response_mean"] < (
            per_class["report"]["response_mean"]
        )
        # Class throughputs sum to the total.
        total = sum(s["throughput"] for s in per_class.values())
        overall = result.totals["commits"] / result.totals[
            "simulated_time"
        ]
        assert total == pytest.approx(overall, rel=1e-6)

    def test_single_class_per_class_empty(self):
        result = run_simulation(
            SimulationParameters.table2(mpl=5, num_terms=5),
            "blocking",
            RunConfig(batches=2, batch_time=5.0, warmup_batches=0,
                      seed=5),
        )
        assert result.totals["per_class"] == {}


class TestMultiversionAdvantage:
    def test_long_readers_hurt_writers_under_2pl_not_mvto(self):
        # The classic multiversion pitch: long read-only reports
        # blocking short writers under 2PL; MVTO reads never block.
        params = mixed_params(
            db_size=200,
            workload_mix=(
                TransactionClass("writer", 5.0, 2, 6, 0.8),
                TransactionClass("report", 1.0, 40, 60, 0.0),
            ),
            int_think_time=0.0,
        )
        locking = SystemModel(params, "blocking", seed=6)
        locking.run_until(40.0)
        mvto = SystemModel(params, "mvto", seed=6)
        mvto.run_until(40.0)
        # MVTO never blocks at all; blocking does, heavily.
        assert mvto.metrics.blocks.total == 0
        assert locking.metrics.blocks.total > 100
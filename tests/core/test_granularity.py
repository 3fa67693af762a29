"""Tests for concurrency-control granularity (the Ries knob)."""

import pytest

from repro.core import SimulationParameters, SystemModel
from repro.obs import InvariantChecker


class TestUnitMapping:
    def test_default_is_object_level(self):
        params = SimulationParameters.table2()
        assert params.lock_granules is None
        assert params.cc_unit_of(0) == 0
        assert params.cc_unit_of(999) == 999

    def test_contiguous_equal_granules(self):
        params = SimulationParameters.table2(lock_granules=10)
        assert params.cc_unit_of(0) == 0
        assert params.cc_unit_of(99) == 0
        assert params.cc_unit_of(100) == 1
        assert params.cc_unit_of(999) == 9

    def test_single_granule(self):
        params = SimulationParameters.table2(lock_granules=1)
        assert params.cc_unit_of(0) == 0
        assert params.cc_unit_of(999) == 0

    @pytest.mark.parametrize("granules", [0, -1, 1001])
    def test_validation(self, granules):
        with pytest.raises(ValueError):
            SimulationParameters.table2(lock_granules=granules)


class TestEngineAssignment:
    def test_cc_sets_deduplicate_granules(self):
        params = SimulationParameters(
            db_size=100, min_size=8, max_size=8, write_prob=0.5,
            num_terms=2, mpl=2, lock_granules=4,
        )
        model = SystemModel(params, "blocking", seed=1)
        tx = model.workload.new_transaction(0)
        tx.begin_attempt(0.0, (0.0, 0))
        model._assign_cc_units(tx)
        assert len(tx.cc_read_set) == len(set(tx.cc_read_set))
        assert set(tx.cc_read_set) <= {0, 1, 2, 3}
        assert tx.cc_write_set <= set(tx.cc_read_set)

    def test_object_level_identity(self):
        params = SimulationParameters(
            db_size=100, min_size=4, max_size=4, write_prob=0.5,
            num_terms=2, mpl=2,
        )
        model = SystemModel(params, "blocking", seed=1)
        tx = model.workload.new_transaction(0)
        tx.begin_attempt(0.0, (0.0, 0))
        model._assign_cc_units(tx)
        assert tx.cc_read_set == tx.read_set
        assert tx.cc_write_set == tx.write_set


class TestBehavior:
    def hot(self, granules, **overrides):
        base = dict(
            db_size=200, min_size=2, max_size=6, write_prob=0.4,
            num_terms=12, mpl=10, ext_think_time=0.1,
            obj_io=0.01, obj_cpu=0.005, num_cpus=None, num_disks=None,
            lock_granules=granules,
        )
        base.update(overrides)
        return SimulationParameters(**base)

    def test_coarser_granularity_conflicts_more(self):
        fine = SystemModel(self.hot(None), "blocking", seed=2)
        fine.run_until(30.0)
        coarse = SystemModel(self.hot(5), "blocking", seed=2)
        coarse.run_until(30.0)

        def block_ratio(model):
            return (
                model.metrics.blocks.total
                / max(1, model.metrics.commits.total)
            )

        assert block_ratio(coarse) > 2 * block_ratio(fine)

    def test_single_granule_serializes_writers(self):
        # One granule under static locking: writers are fully serial,
        # yet everything still commits.
        model = SystemModel(self.hot(1), "static_locking", seed=3)
        model.run_until(30.0)
        assert model.metrics.commits.total > 20
        assert model.metrics.restarts.total == 0

    @pytest.mark.parametrize(
        "algorithm",
        ["blocking", "immediate_restart", "optimistic", "basic_to",
         "mvto", "wound_wait", "wait_die", "static_locking"],
    )
    @pytest.mark.parametrize("granules", [1, 7, 50])
    def test_histories_serializable_at_any_granularity(
        self, algorithm, granules
    ):
        params = self.hot(
            granules,
            db_size=50,
            restart_delay_mode="adaptive_all",
        )
        checker = InvariantChecker(mode="strict")
        model = SystemModel(
            params, algorithm, seed=4, subscribers=(checker,)
        )
        model.run_until(40.0)
        assert model.metrics.commits.total > 20, "too hot to commit"
        report = checker.report()
        assert report["violations"] == []
        assert report["serializability"]["reads"] > 0

    def test_thomas_rule_with_granules_stays_serializable(self):
        # NOTE: in the paper's workload every write is preceded by a
        # read of the same object (no blind writes), so the Thomas
        # write rule essentially never fires end-to-end: the
        # read-timestamp check rejects the late writer first. The rule
        # is exercised at the protocol level in tests/cc/test_timestamp
        # (blind-write doubles); here we only require that enabling it
        # at coarse granularity cannot break serializability.
        from repro.cc import BasicTimestampOrderingCC

        params = self.hot(
            5, db_size=50, write_prob=1.0,
            restart_delay_mode="adaptive_all",
        )
        checker = InvariantChecker(mode="strict")
        model = SystemModel(
            params,
            BasicTimestampOrderingCC(thomas_write_rule=True),
            seed=5,
            subscribers=(checker,),
        )
        model.run_until(40.0)
        assert model.metrics.commits.total > 20
        report = checker.report()
        assert report["violations"] == []
        assert report["serializability"]["reads"] > 0
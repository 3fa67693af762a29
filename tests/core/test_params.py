"""Tests for SimulationParameters (Table 1/2) and RunConfig."""

import pytest

from repro.core import (
    PAPER_MPLS,
    RunConfig,
    SimulationParameters,
)


class TestTable2:
    def test_matches_paper_values(self):
        p = SimulationParameters.table2()
        assert p.db_size == 1000
        assert p.min_size == 4
        assert p.max_size == 12
        assert p.tran_size == 8.0
        assert p.write_prob == 0.25
        assert p.num_terms == 200
        assert p.ext_think_time == 1.0
        assert p.obj_io == 0.035
        assert p.obj_cpu == 0.015
        assert p.num_cpus == 1
        assert p.num_disks == 2

    def test_paper_mpl_sweep(self):
        assert PAPER_MPLS == (5, 10, 25, 50, 75, 100, 200)

    def test_overrides(self):
        p = SimulationParameters.table2(mpl=50, db_size=10_000)
        assert p.mpl == 50
        assert p.db_size == 10_000
        assert p.obj_io == 0.035


class TestValidation:
    def test_defaults_valid(self):
        SimulationParameters()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("db_size", 0),
            ("min_size", 0),
            ("write_prob", 1.5),
            ("write_prob", -0.1),
            ("num_terms", 0),
            ("mpl", 0),
            ("ext_think_time", -1.0),
            ("obj_io", -0.001),
            ("num_cpus", 0),
            ("num_disks", -2),
            ("restart_delay_mode", "sometimes"),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            SimulationParameters(**{field: value})

    def test_rejects_min_above_max(self):
        with pytest.raises(ValueError):
            SimulationParameters(min_size=10, max_size=5)

    def test_rejects_tran_bigger_than_db(self):
        with pytest.raises(ValueError):
            SimulationParameters(db_size=10, min_size=4, max_size=12)

    def test_frozen(self):
        p = SimulationParameters()
        with pytest.raises(AttributeError):
            p.mpl = 99

    def test_with_changes_revalidates(self):
        p = SimulationParameters()
        assert p.with_changes(mpl=77).mpl == 77
        with pytest.raises(ValueError):
            p.with_changes(mpl=0)


class TestDerived:
    def test_expected_service_time(self):
        p = SimulationParameters.table2()
        # 8 * (0.035 + 0.015) + 8 * 0.25 * (0.015 + 0.035) = 0.4 + 0.1
        assert p.expected_service_time() == pytest.approx(0.5)

    def test_expected_service_time_includes_think(self):
        p = SimulationParameters.table2(int_think_time=5.0)
        assert p.expected_service_time() == pytest.approx(5.5)

    def test_describe_lists_fields(self):
        text = SimulationParameters().describe()
        assert "db_size" in text
        assert "write_prob" in text


class TestRunConfig:
    def test_defaults(self):
        run = RunConfig()
        assert run.batches == 20
        assert run.confidence == 0.90

    @pytest.mark.parametrize(
        "field,value",
        [
            ("batches", 0),
            ("batch_time", 0.0),
            ("warmup_batches", -1),
            ("confidence", 0.0),
            ("confidence", 1.0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            RunConfig(**{field: value})

    def test_with_changes(self):
        assert RunConfig().with_changes(seed=7).seed == 7

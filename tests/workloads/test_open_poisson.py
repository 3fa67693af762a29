"""open_poisson: default rate, MMPP validation, saturation reporting."""

import pytest

from repro.core import (
    RunConfig,
    SimulationParameters,
    run_simulation,
)
from repro.workloads import create_workload_model

RUN = RunConfig(batches=4, batch_time=15.0, warmup_batches=1, seed=31)


def open_params(**overrides):
    base = dict(
        db_size=500, min_size=4, max_size=8, write_prob=0.25,
        num_terms=1, mpl=20,
        obj_io=0.010, obj_cpu=0.005, num_cpus=2, num_disks=4,
        workload_model="open_poisson",
    )
    base.update(overrides)
    return SimulationParameters(**base)


class TestPoissonRate:
    def test_rate_defaults_to_params_arrival_rate(self):
        model = create_workload_model(open_params(arrival_rate=7.5))
        assert model.rate == 7.5
        assert model.mean_rate() == 7.5


class TestMmppValidation:
    def test_requires_rates_and_sojourns(self):
        with pytest.raises(ValueError, match="rates"):
            create_workload_model(
                open_params(workload_spec={"process": "mmpp"})
            )

    def test_rates_and_sojourns_must_pair_up(self):
        with pytest.raises(ValueError, match="pair up"):
            create_workload_model(open_params(workload_spec={
                "process": "mmpp", "rates": (1.0, 5.0),
                "sojourns": (2.0,),
            }))

    def test_needs_two_phases_with_positive_dwell(self):
        with pytest.raises(ValueError, match="two phase"):
            create_workload_model(open_params(workload_spec={
                "process": "mmpp", "rates": (1.0,), "sojourns": (2.0,),
            }))
        with pytest.raises(ValueError, match="sojourns"):
            create_workload_model(open_params(workload_spec={
                "process": "mmpp", "rates": (1.0, 2.0),
                "sojourns": (2.0, 0.0),
            }))

    def test_some_phase_must_emit(self):
        with pytest.raises(ValueError, match="at least one"):
            create_workload_model(open_params(workload_spec={
                "process": "mmpp", "rates": (0.0, 0.0),
                "sojourns": (1.0, 1.0),
            }))

    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError, match="poisson.*mmpp"):
            create_workload_model(
                open_params(workload_spec={"process": "weibull"})
            )

    def test_mean_rate_is_sojourn_weighted(self):
        model = create_workload_model(open_params(workload_spec={
            "process": "mmpp", "rates": (0.0, 9.0),
            "sojourns": (2.0, 1.0),
        }))
        assert model.mean_rate() == pytest.approx(3.0)


class TestMmppRuns:
    def test_bursty_source_carries_its_mean_rate_when_stable(self):
        # ON/OFF phases averaging 3 tx/s against ~10 tx/s of capacity:
        # throughput tracks the offered mean.
        result = run_simulation(
            open_params(workload_spec={
                "process": "mmpp", "rates": (6.0, 0.0),
                "sojourns": (5.0, 5.0),
            }),
            "blocking",
            RunConfig(batches=6, batch_time=30.0, warmup_batches=1,
                      seed=8),
        )
        assert not result.saturated
        open_totals = result.totals["open_system"]
        assert open_totals["process"] == "mmpp"
        assert open_totals["offered_rate"] == pytest.approx(3.0)
        assert result.throughput == pytest.approx(3.0, rel=0.15)


class TestSaturationReporting:
    def test_underloaded_run_reports_stable(self):
        result = run_simulation(
            open_params(workload_spec={"rate": 5.0}), "blocking",
            run=RUN,
        )
        open_totals = result.totals["open_system"]
        assert result.saturated is False
        assert open_totals["saturated"] is False
        assert open_totals["arrival_rate"] == pytest.approx(5.0, rel=0.2)
        assert open_totals["drain_ratio"] > 0.9
        assert "stable" in result.describe()

    def test_overloaded_run_is_flagged_saturated(self):
        # ~50 tx/s offered against ~10 tx/s of capacity: the backlog
        # grows without bound and the verdict must say so.
        result = run_simulation(
            open_params(workload_spec={"rate": 50.0}), "blocking",
            run=RUN,
        )
        open_totals = result.totals["open_system"]
        assert result.saturated is True
        assert open_totals["saturated"] is True
        assert open_totals["in_system"] > 2 * 20
        assert open_totals["drain_ratio"] < 0.95
        assert "SATURATED" in result.describe()

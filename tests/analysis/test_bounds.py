"""Tests for operational-analysis bounds and their use as oracles."""

import math

import pytest

from repro.analysis import (
    check_result_against_bounds,
    operational_bounds,
)
from repro.analytic import mva_prediction
from repro.core import RunConfig, SimulationParameters, run_simulation
from tests.analytic.test_bridge import CONFIGURATIONS


class TestBoundsComputation:
    def test_table2_demands(self):
        bounds = operational_bounds(SimulationParameters.table2())
        # 8 * 1.25 = 10 accesses: 150 ms CPU, 350 ms disk.
        assert bounds.cpu_demand == pytest.approx(0.150)
        assert bounds.disk_demand == pytest.approx(0.350)
        # 2 disks -> per-disk demand 175 ms; 1 CPU -> 150 ms.
        assert bounds.max_server_demand == pytest.approx(0.175)
        assert bounds.bottleneck_throughput == pytest.approx(1 / 0.175)
        assert bounds.min_response_time == pytest.approx(0.5)
        # 200 terminals, 1 s thinking.
        assert bounds.population_throughput == pytest.approx(200 / 1.5)
        # The disks bind long before the population does.
        assert bounds.throughput_ceiling == pytest.approx(
            bounds.bottleneck_throughput
        )

    def test_infinite_resources_bound_by_population(self):
        params = SimulationParameters.table2(
            num_cpus=None, num_disks=None
        )
        bounds = operational_bounds(params)
        assert bounds.max_server_demand == 0.0
        assert bounds.bottleneck_throughput == math.inf
        assert bounds.throughput_ceiling == pytest.approx(200 / 1.5)

    def test_internal_think_raises_response_floor(self):
        params = SimulationParameters.table2(int_think_time=5.0)
        bounds = operational_bounds(params)
        assert bounds.min_response_time == pytest.approx(5.5)

    @pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
    def test_ceiling_bounds_exact_mva(self, name):
        params = CONFIGURATIONS[name]
        assert (
            operational_bounds(params).throughput_ceiling
            >= mva_prediction(params).throughput
        )

    def test_describe(self):
        text = operational_bounds(SimulationParameters.table2()).describe()
        assert "X <=" in text
        assert "R0=" in text


class TestBoundsAsOracles:
    RUN = RunConfig(batches=4, batch_time=15.0, warmup_batches=1, seed=6)

    @pytest.mark.parametrize(
        "algorithm", ["blocking", "optimistic", "noop"]
    )
    def test_every_algorithm_respects_bounds(self, algorithm):
        params = SimulationParameters.table2(mpl=50)
        result = run_simulation(params, algorithm, self.RUN)
        bounds = check_result_against_bounds(result)
        assert result.throughput <= bounds.throughput_ceiling * 1.05

    def test_contention_free_baseline_approaches_ceiling(self):
        # noop with plenty of active transactions should saturate the
        # bottleneck: within 15% of the asymptotic ceiling.
        params = SimulationParameters.table2(mpl=100, write_prob=0.0)
        result = run_simulation(params, "noop", self.RUN)
        bounds = operational_bounds(params)
        assert result.throughput > 0.85 * bounds.throughput_ceiling

    def test_violation_detected(self):
        # Feed the checker a doctored result and make sure it fires.
        params = SimulationParameters.table2(mpl=10)
        result = run_simulation(params, "noop", self.RUN)
        result.analyzer.series("throughput").values[:] = [1e9] * 4
        with pytest.raises(AssertionError, match="ceiling"):
            check_result_against_bounds(result)

    def test_response_floor_violation_detected(self):
        params = SimulationParameters.table2(mpl=10)
        result = run_simulation(params, "noop", self.RUN)
        result.totals["response_time_overall_mean"] = 1e-6
        with pytest.raises(AssertionError, match="floor"):
            check_result_against_bounds(result)

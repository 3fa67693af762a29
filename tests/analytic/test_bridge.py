"""Cross-validation: MVA predictions vs. the simulator.

The strongest whole-system test in the suite: two entirely independent
implementations of the same model — the discrete-event simulator and
the analytical MVA solver — must agree on the contention-free baseline
(within the deterministic-vs-exponential service-time gap), and MVA
must upper-bound every real algorithm.
"""

import pytest

from repro.analytic import (
    mva_prediction,
    network_for_params,
    predicted_curve,
)
from repro.core import RunConfig, SimulationParameters, run_simulation
from tests.analytic.test_mva import assert_group_matches_expansion

RUN = RunConfig(batches=5, batch_time=20.0, warmup_batches=1, seed=33)

#: Configurations every consumer of the one builder must agree on.
CONFIGURATIONS = {
    "table2": SimulationParameters.table2(),
    "10cpu_25disk": SimulationParameters.table2(num_cpus=10, num_disks=25),
    "infinite": SimulationParameters.table2(num_cpus=None, num_disks=None),
    "int_think": SimulationParameters.table2(int_think_time=5.0),
}


class TestPopulationSentinels:
    """population/populations use `is None` sentinels: an explicit
    zero or empty sweep is caller error, never a silent fallback to
    `num_terms` (the bug this class regresses against).
    """

    def test_population_zero_raises(self):
        with pytest.raises(ValueError, match="population"):
            mva_prediction(SimulationParameters.table2(), population=0)

    def test_population_negative_raises(self):
        with pytest.raises(ValueError, match="population"):
            mva_prediction(SimulationParameters.table2(), population=-3)

    def test_population_none_defaults_to_terminals(self):
        params = SimulationParameters.table2(num_terms=7)
        assert mva_prediction(params).population == 7

    def test_explicit_population_honored(self):
        params = SimulationParameters.table2(num_terms=200)
        assert mva_prediction(params, population=3).population == 3

    def test_empty_populations_raises(self):
        with pytest.raises(ValueError, match="non-empty"):
            predicted_curve(SimulationParameters.table2(), populations=[])

    def test_nonpositive_population_in_sweep_raises(self):
        with pytest.raises(ValueError, match=">= 1"):
            predicted_curve(
                SimulationParameters.table2(), populations=[5, 0]
            )

    def test_curve_none_sweeps_to_terminals(self):
        params = SimulationParameters.table2(num_terms=9)
        curve = predicted_curve(params)
        assert [pop for pop, _ in curve] == list(range(1, 10))

    def test_curve_explicit_subset(self):
        params = SimulationParameters.table2(num_terms=200)
        curve = predicted_curve(params, populations=[2, 5])
        assert [pop for pop, _ in curve] == [2, 5]


class TestNetworkConstruction:
    def test_table2_network(self):
        centers = {
            center.name: center
            for center in network_for_params(SimulationParameters.table2())
        }
        assert list(centers) == ["terminals", "cpu", "disks"]
        assert centers["terminals"].kind == "delay"
        assert centers["terminals"].demand == 1.0
        assert centers["cpu"].kind == "queueing"  # one CPU
        assert centers["cpu"].demand == pytest.approx(0.150)
        assert centers["disks"].kind == "queueing"
        assert centers["disks"].demand == pytest.approx(0.175)
        assert centers["disks"].count == 2

    def test_multi_cpu_becomes_multi_server(self):
        params = SimulationParameters.table2(num_cpus=5, num_disks=10)
        centers = {
            center.name: center for center in network_for_params(params)
        }
        assert centers["cpu"].kind == "multi_server"
        assert centers["cpu"].servers == 5
        assert centers["disks"].count == 10

    def test_infinite_resources_become_delays(self):
        params = SimulationParameters.table2(
            num_cpus=None, num_disks=None
        )
        centers = {
            center.name: center for center in network_for_params(params)
        }
        assert centers["cpu"].kind == "delay"
        assert centers["disks"].kind == "delay"
        assert centers["disks"].count == 1
        assert centers["disks"].demand == pytest.approx(0.350)

    def test_internal_think_becomes_delay(self):
        params = SimulationParameters.table2(int_think_time=5.0)
        names = [c.name for c in network_for_params(params)]
        assert names == ["terminals", "internal_think", "cpu", "disks"]


class TestGroupedDisks:
    @pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
    def test_grouped_network_matches_expanded_disks(self, name):
        params = CONFIGURATIONS[name]
        assert_group_matches_expansion(
            network_for_params(params), params.num_terms
        )


class TestSimulatorAgreement:
    @pytest.mark.parametrize(
        "num_cpus,num_disks", [(1, 2), (5, 10), (None, None)]
    )
    def test_noop_matches_mva(self, num_cpus, num_disks):
        params = SimulationParameters.table2(
            num_cpus=num_cpus,
            num_disks=num_disks,
            num_terms=50,
            mpl=50,  # mpl not binding: MVA's assumption
            write_prob=0.0,
        )
        predicted = mva_prediction(params).throughput
        simulated = run_simulation(params, "noop", RUN).throughput
        # Deterministic service in the simulator vs. exponential in
        # MVA: deterministic queues are (weakly) faster, so allow a
        # modest one-sided band.
        assert simulated == pytest.approx(predicted, rel=0.12)

    def test_interactive_noop_matches_mva(self):
        params = SimulationParameters.table2(
            num_terms=50, mpl=50, write_prob=0.0,
            int_think_time=2.0, ext_think_time=3.0,
        )
        predicted = mva_prediction(params).throughput
        simulated = run_simulation(params, "noop", RUN).throughput
        assert simulated == pytest.approx(predicted, rel=0.12)

    @pytest.mark.parametrize(
        "algorithm", ["blocking", "immediate_restart", "optimistic"]
    )
    def test_mva_upper_bounds_real_algorithms(self, algorithm):
        params = SimulationParameters.table2(num_terms=50, mpl=50)
        predicted = mva_prediction(params).throughput
        simulated = run_simulation(params, algorithm, RUN).throughput
        assert simulated <= predicted * 1.08

    def test_response_time_agreement(self):
        params = SimulationParameters.table2(
            num_terms=30, mpl=30, write_prob=0.0
        )
        predicted = mva_prediction(params)
        result = run_simulation(params, "noop", RUN)
        assert result.mean("response_time") == pytest.approx(
            predicted.response_time, rel=0.15
        )

    def test_bottleneck_is_the_disks(self):
        prediction = mva_prediction(SimulationParameters.table2())
        assert prediction.bottleneck() == "disks"

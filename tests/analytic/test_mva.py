"""Tests for the exact MVA solver against closed-form results."""

import pytest

from repro.analytic import (
    Center,
    DELAY,
    MULTI_SERVER,
    QUEUEING,
    solve_closed_network,
)
from repro.analytic.mva import solve_curve


def machine_repairman_throughput(n, think, service, servers=1):
    """Closed-form M/M/m//N machine-repairman throughput.

    Birth-death steady state: state k = broken machines; failure rate
    (n-k)/think; repair rate min(k, m)/service.
    """
    probs = [1.0]
    for k in range(1, n + 1):
        rate_up = (n - k + 1) / think
        rate_down = min(k, servers) / service
        probs.append(probs[-1] * rate_up / rate_down)
    total = sum(probs)
    probs = [p / total for p in probs]
    # Throughput = repair completion rate.
    return sum(
        probs[k] * min(k, servers) / service for k in range(n + 1)
    )


class TestValidation:
    def test_bad_center_kind(self):
        with pytest.raises(ValueError):
            Center("x", "magic", 1.0)

    def test_negative_demand(self):
        with pytest.raises(ValueError):
            Center("x", DELAY, -1.0)

    def test_multi_server_count(self):
        with pytest.raises(ValueError):
            Center("x", MULTI_SERVER, 1.0, servers=0)

    def test_servers_only_for_multi_server(self):
        with pytest.raises(ValueError, match="servers"):
            Center("x", QUEUEING, 1.0, servers=3)

    def test_group_count_positive(self):
        with pytest.raises(ValueError, match="count"):
            Center("x", QUEUEING, 1.0, count=0)

    def test_population_positive(self):
        with pytest.raises(ValueError):
            solve_closed_network([Center("x", DELAY, 1.0)], 0)

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            solve_closed_network(
                [Center("x", DELAY, 1.0), Center("x", DELAY, 2.0)], 2
            )


def expanded(centers):
    """``centers`` with every counted group spelled out member by member."""
    return [
        Center(f"{center.name}{index}", center.kind, center.demand,
               servers=center.servers)
        for center in centers
        for index in range(center.count)
    ]


def assert_group_matches_expansion(centers, population):
    """Exact MVA on grouped centers equals MVA on their expansion."""
    grouped = solve_curve(centers, population)
    members = solve_curve(expanded(centers), population)
    for group, member in zip(grouped, members):
        assert group.throughput == pytest.approx(
            member.throughput, rel=1e-12
        )
        assert group.response_time == pytest.approx(
            member.response_time, rel=1e-12, abs=1e-12
        )
        for center in centers:
            first = f"{center.name}0"
            assert group.residence_times[center.name] == pytest.approx(
                member.residence_times[first], rel=1e-12
            )
            assert group.utilizations[center.name] == pytest.approx(
                member.utilizations[first], rel=1e-12, abs=1e-12
            )


class TestCountedGroups:
    @pytest.mark.parametrize("kind,servers", [
        (DELAY, 1), (QUEUEING, 1), (MULTI_SERVER, 3),
    ])
    def test_group_matches_expansion(self, kind, servers):
        centers = [
            Center("think", DELAY, 1.0),
            Center("cpu", QUEUEING, 0.05),
            Center("pool", kind, 0.2, servers=servers, count=4),
        ]
        assert_group_matches_expansion(centers, 30)

    def test_group_queue_lengths_sum_to_n(self):
        centers = [
            Center("think", DELAY, 1.0),
            Center("disks", QUEUEING, 0.1, count=5),
        ]
        for result in solve_curve(centers, 20):
            total = sum(
                result.queue_lengths[center.name] * center.count
                for center in centers
            )
            assert total == pytest.approx(result.population, rel=1e-9)


class TestClosedForms:
    def test_delay_only_network(self):
        result = solve_closed_network(
            [Center("think", DELAY, 4.0)], population=10
        )
        assert result.throughput == pytest.approx(10 / 4.0)
        assert result.response_time == pytest.approx(0.0)

    def test_single_customer_sees_raw_demands(self):
        centers = [
            Center("think", DELAY, 2.0),
            Center("server", QUEUEING, 1.0),
        ]
        result = solve_closed_network(centers, population=1)
        assert result.throughput == pytest.approx(1 / 3.0)
        assert result.response_time == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 25])
    def test_machine_repairman_single_server(self, n):
        think, service = 10.0, 1.0
        result = solve_closed_network(
            [
                Center("think", DELAY, think),
                Center("repair", QUEUEING, service),
            ],
            population=n,
        )
        expected = machine_repairman_throughput(n, think, service)
        assert result.throughput == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("servers", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_machine_repairman_multi_server(self, n, servers):
        think, service = 5.0, 2.0
        result = solve_closed_network(
            [
                Center("think", DELAY, think),
                Center(
                    "repair", MULTI_SERVER, service, servers=servers
                ),
            ],
            population=n,
        )
        expected = machine_repairman_throughput(
            n, think, service, servers
        )
        assert result.throughput == pytest.approx(expected, rel=1e-6)

    def test_multi_server_with_one_server_matches_queueing(self):
        think = 3.0
        for n in (1, 5, 15):
            single = solve_closed_network(
                [
                    Center("think", DELAY, think),
                    Center("s", QUEUEING, 1.0),
                ],
                n,
            )
            multi = solve_closed_network(
                [
                    Center("think", DELAY, think),
                    Center("s", MULTI_SERVER, 1.0, servers=1),
                ],
                n,
            )
            assert multi.throughput == pytest.approx(
                single.throughput, rel=1e-9
            )


class TestMultiServerExactness:
    """Audit the load-dependent recursion (`_multi_server_residence`,
    `_advance_low_states`) against the exact finite-source M/M/c
    birth-death solution — the closed-form the Erlang-C family reduces
    to in a closed network. The saturated wide pools are where the
    textbook p(0) = 1 - sum(p) form loses its digits.
    """

    @pytest.mark.parametrize(
        "servers,demand,n",
        [
            (2, 1.0, 5),
            (2, 0.2, 3),
            (3, 0.5, 10),
            (4, 1.0, 4),
            (5, 2.0, 20),
            (8, 3.0, 30),
            (10, 0.15, 200),
            (16, 1.0, 300),
        ],
    )
    def test_matches_exact_birth_death(self, servers, demand, n):
        think = 2.0
        result = solve_closed_network(
            [
                Center("think", DELAY, think),
                Center("pool", MULTI_SERVER, demand, servers=servers),
            ],
            population=n,
        )
        exact = machine_repairman_throughput(n, think, demand, servers)
        assert result.throughput == pytest.approx(exact, rel=1e-8)

    def test_marginals_little_law_consistency(self):
        # The marginal recursion's queue length must agree with the
        # residence-time route to the same quantity at every population.
        centers = [
            Center("think", DELAY, 4.0),
            Center("pool", MULTI_SERVER, 1.5, servers=3),
        ]
        for result in solve_curve(centers, 25):
            assert result.queue_lengths["pool"] == pytest.approx(
                result.throughput * result.residence_times["pool"],
                rel=1e-9,
            )


class TestBottleneckDeterminism:
    def test_tie_breaks_by_center_name(self):
        # Two identical disks: equally utilized by symmetry. The
        # bottleneck must be the lexicographically first name whatever
        # order the centers were listed in.
        for order in (("disk0", "disk1"), ("disk1", "disk0")):
            centers = [Center("think", DELAY, 1.0)] + [
                Center(name, QUEUEING, 0.35) for name in order
            ]
            result = solve_closed_network(centers, 20)
            assert (
                result.utilizations["disk0"]
                == result.utilizations["disk1"]
            )
            assert result.bottleneck() == "disk0"

    def test_empty_utilizations(self):
        from repro.analytic.mva import MvaResult

        assert MvaResult(1, 0.0, 0.0).bottleneck() is None


class TestProperties:
    def centers(self):
        return [
            Center("think", DELAY, 2.0),
            Center("cpu", MULTI_SERVER, 0.3, servers=2),
            Center("disk0", QUEUEING, 0.35),
            Center("disk1", QUEUEING, 0.35),
        ]

    def test_throughput_monotone_in_population(self):
        curve = solve_curve(self.centers(), 30)
        throughputs = [result.throughput for result in curve]
        assert all(
            b >= a - 1e-12 for a, b in zip(throughputs, throughputs[1:])
        )

    def test_throughput_bounded_by_bottleneck(self):
        curve = solve_curve(self.centers(), 60)
        # Bottleneck: a 0.35 s demand single-server disk.
        for result in curve:
            assert result.throughput <= 1 / 0.35 + 1e-9

    def test_little_law_holds_at_every_center(self):
        for result in solve_curve(self.centers(), 20):
            for name, queue_length in result.queue_lengths.items():
                expected = (
                    result.throughput * result.residence_times[name]
                )
                assert queue_length == pytest.approx(expected, rel=1e-9)

    def test_populations_sum_to_n(self):
        for result in solve_curve(self.centers(), 20):
            assert sum(result.queue_lengths.values()) == pytest.approx(
                result.population, rel=1e-9
            )

    def test_utilizations_bounded(self):
        for result in solve_curve(self.centers(), 40):
            for value in result.utilizations.values():
                assert 0.0 <= value <= 1.0 + 1e-12

    def test_bottleneck_identified(self):
        result = solve_closed_network(self.centers(), 40)
        assert result.bottleneck() in ("disk0", "disk1")

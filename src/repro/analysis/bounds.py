"""Operational-analysis bounds for the closed queuing model.

Classical asymptotic bound analysis (Denning & Buzen) gives hard limits
on what any concurrency control algorithm could achieve in the paper's
model, from the service demands of
:func:`repro.analytic.network_for_params` alone:

* throughput can never exceed the bottleneck rate ``1 / D_max`` nor the
  no-queueing rate ``N / (R0 + Z)`` (N terminals, minimal response R0,
  think time Z);
* response time can never drop below the raw demand ``R0``.

Data contention only *subtracts* from these bounds, so they are true
for every algorithm — the test suite uses them as universal oracles,
and the contention-free ``noop`` baseline is verified to approach them.
"""

import math
from dataclasses import dataclass

from repro.analytic import DELAY, network_for_params


@dataclass(frozen=True)
class OperationalBounds:
    """Bounds implied by a :class:`SimulationParameters` configuration."""

    #: Mean per-transaction CPU demand over the whole CPU pool (seconds).
    cpu_demand: float
    #: Mean per-transaction disk demand over all disks (seconds).
    disk_demand: float
    #: Bottleneck demand: the largest per-server demand (inf servers -> 0).
    max_server_demand: float
    #: Minimal response time: raw service plus internal thinking.
    min_response_time: float
    #: Throughput ceiling from the bottleneck (inf if no finite server).
    bottleneck_throughput: float
    #: Throughput ceiling from the population (terminals / cycle time).
    population_throughput: float

    @property
    def throughput_ceiling(self):
        """The binding asymptotic throughput bound."""
        return min(self.bottleneck_throughput, self.population_throughput)

    def describe(self):
        return (
            f"demands: cpu={self.cpu_demand * 1000:.1f}ms "
            f"disk={self.disk_demand * 1000:.1f}ms per transaction; "
            f"R0={self.min_response_time:.3f}s; "
            f"X <= min(1/Dmax={self.bottleneck_throughput:.2f}, "
            f"N/(R0+Z)={self.population_throughput:.2f}) tps"
        )


def operational_bounds(params):
    """Compute :class:`OperationalBounds` for a parameter set.

    A fold over :func:`repro.analytic.network_for_params`: each
    center's total demand is ``demand * count``, a finite center's
    per-server demand is ``demand / servers``, and delay centers
    (infinite resources, internal think) only add to ``R0``.
    """
    terminals, *dbms = network_for_params(params)
    totals = {center.name: center.demand * center.count for center in dbms}
    max_demand = max(
        (center.demand / center.servers
         for center in dbms if center.kind != DELAY),
        default=0.0,
    )
    min_response = sum(totals.values())
    bottleneck = math.inf if max_demand == 0.0 else 1.0 / max_demand
    population = params.num_terms / (min_response + terminals.demand)
    return OperationalBounds(
        cpu_demand=totals["cpu"],
        disk_demand=totals["disks"],
        max_server_demand=max_demand,
        min_response_time=min_response,
        bottleneck_throughput=bottleneck,
        population_throughput=population,
    )


def check_result_against_bounds(result, tolerance=0.05):
    """Verify a SimulationResult respects its configuration's bounds.

    Returns the bounds; raises AssertionError with a diagnostic if the
    measured throughput exceeds the ceiling or the mean response falls
    below the demand floor (beyond ``tolerance`` relative slack —
    bounds use the *mean* transaction size, so small statistical
    excursions are legitimate).
    """
    bounds = operational_bounds(result.params)
    ceiling = bounds.throughput_ceiling * (1.0 + tolerance)
    if result.throughput > ceiling:
        raise AssertionError(
            f"throughput {result.throughput:.3f} exceeds the asymptotic "
            f"ceiling {bounds.throughput_ceiling:.3f} "
            f"({bounds.describe()})"
        )
    floor = bounds.min_response_time * (1.0 - tolerance)
    measured = result.totals.get("response_time_overall_mean")
    if measured is not None and measured > 0 and measured < floor:
        raise AssertionError(
            f"mean response {measured:.3f}s is below the demand floor "
            f"{bounds.min_response_time:.3f}s ({bounds.describe()})"
        )
    return bounds

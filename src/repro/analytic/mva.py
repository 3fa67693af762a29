"""Exact Mean-Value Analysis for single-class closed queuing networks.

Implements the Reiser–Lavenberg recursion over population n = 1..N:

* **delay** centers (infinite servers): R_i(n) = D_i;
* **queueing** centers (one FCFS/PS server):
  R_i(n) = D_i * (1 + Q_i(n-1));
* **multi-server** centers (m identical servers): treated exactly as a
  load-dependent center with service rate mu(j) = min(j, m) / D_i,
  R_i(n) = D_i/m * (1 + Q_i(n-1) + sum_{j<m-1} (m-1-j) p_i(j | n-1)).
  Only the marginals below m are needed. p_i(j | n) for j >= 1 follows
  from p_i(j-1 | n-1); p_i(0 | n) = p_i(0 | n-1) * X(n) / X_{-i}(n),
  with X_{-i} the throughput of the network without center i (one
  extra solve per multi-server member). The textbook
  p_i(0 | n) = 1 - sum_j p_i(j | n) cancels catastrophically near
  saturation (a 10-server pool loses every digit by n ~ 150).

With exponential service, these results are exact for product-form
networks; the simulator uses deterministic service times, so
predictions match to within a few percent (the tests pin the
tolerance).

Example — the classic machine-repairman sanity check::

    >>> centers = [Center("think", DELAY, 10.0),
    ...            Center("repair", QUEUEING, 1.0)]
    >>> result = solve_closed_network(centers, population=5)
    >>> round(result.throughput, 3) < 1.0  # can't beat the repairman
    True
"""

from dataclasses import dataclass, field, replace
from typing import Dict

DELAY = "delay"
QUEUEING = "queueing"
MULTI_SERVER = "multi_server"

_CENTER_TYPES = (DELAY, QUEUEING, MULTI_SERVER)


@dataclass(frozen=True)
class Center:
    """One service center: a name, a type, and a per-visit demand.

    ``demand`` is the total service demand one customer places on the
    center per pass through the network (visit ratio x service time).
    ``servers`` only applies to MULTI_SERVER centers. ``count`` makes
    the center a group of that many identical centers (e.g. disks
    visited uniformly), each with this ``demand``; by symmetry every
    member has the same residence, so the group is solved once and
    weighted by ``count``.
    """

    name: str
    kind: str
    demand: float
    servers: int = 1
    count: int = 1

    def __post_init__(self):
        if self.kind not in _CENTER_TYPES:
            raise ValueError(
                f"kind must be one of {_CENTER_TYPES}, got {self.kind!r}"
            )
        if self.demand < 0.0:
            raise ValueError(f"demand must be >= 0, got {self.demand}")
        if self.servers != 1 and (
            self.kind != MULTI_SERVER or self.servers < 1
        ):
            raise ValueError(
                f"servers must be >= 1 for a multi-server center and 1 "
                f"otherwise, got {self.servers} for {self.kind}"
            )
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


@dataclass
class MvaResult:
    """MVA solution at one population level.

    The per-center maps describe one member of a counted group; the
    group's totals are ``count`` times the residence and queue length.
    """

    population: int
    throughput: float
    response_time: float
    #: center name -> mean residence time (queueing + service).
    residence_times: Dict[str, float] = field(default_factory=dict)
    #: center name -> mean queue length (customers in residence).
    queue_lengths: Dict[str, float] = field(default_factory=dict)
    #: center name -> utilization (per-server busy fraction).
    utilizations: Dict[str, float] = field(default_factory=dict)

    def bottleneck(self):
        """Name of the center with the highest utilization.

        Equally-utilized centers (e.g. identical disks) tie-break by
        center name, so the answer never depends on dict insertion
        order and reports are deterministic.
        """
        if not self.utilizations:
            return None
        best = max(self.utilizations.values())
        return min(
            name for name, util in self.utilizations.items()
            if util == best
        )


def solve_closed_network(centers, population):
    """Exact MVA for ``population`` customers over ``centers``.

    Returns the :class:`MvaResult` at the full population. Use
    :func:`solve_curve` for the whole 1..N sweep.
    """
    return solve_curve(centers, population)[-1]


def solve_curve(centers, population):
    """MVA results for every population level 1..``population``."""
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    centers = list(centers)
    names = [center.name for center in centers]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate center names in {names}")

    delay_demand = sum(
        center.demand * center.count
        for center in centers if center.kind == DELAY
    )
    queue = {center.name: 0.0 for center in centers}
    # p_i(j | n) for j < servers at each busy multi-server center, and
    # the throughput curve of the network without one of its members.
    pools = [
        center for center in centers
        if center.kind == MULTI_SERVER and center.demand > 0.0
    ]
    low_states = {
        pool.name: [1.0] + [0.0] * (pool.servers - 1) for pool in pools
    }
    complements = {
        pool.name: _complement_throughputs(centers, pool, population)
        for pool in pools
    }
    results = []
    for n in range(1, population + 1):
        residence = {}
        for center in centers:
            if center.kind == DELAY:
                residence[center.name] = center.demand
            elif center.kind == QUEUEING:
                residence[center.name] = center.demand * (
                    1.0 + queue[center.name]
                )
            elif center.demand == 0.0:
                residence[center.name] = 0.0
            else:
                residence[center.name] = _multi_server_residence(
                    center, low_states[center.name], queue[center.name]
                )
        total_residence = sum(
            residence[center.name] * center.count for center in centers
        )
        throughput = n / total_residence if total_residence > 0 else 0.0

        for center in centers:
            queue[center.name] = throughput * residence[center.name]
        for pool in pools:
            _advance_low_states(
                low_states[pool.name], throughput, pool.demand,
                complements[pool.name][n - 1],
            )
        utilizations = {
            center.name: 0.0 if center.kind == DELAY
            else min(1.0, throughput * center.demand / center.servers)
            for center in centers
        }
        results.append(
            MvaResult(
                population=n,
                throughput=throughput,
                response_time=total_residence - delay_demand,
                residence_times=dict(residence),
                queue_lengths=dict(queue),
                utilizations=utilizations,
            )
        )
    return results


def _complement_throughputs(centers, center, population):
    """Throughput curve of ``centers`` with one member of ``center`` gone."""
    rest = [
        replace(other, count=other.count - 1) if other is center else other
        for other in centers
        if other is not center or other.count > 1
    ]
    return [result.throughput for result in solve_curve(rest, population)]


def _multi_server_residence(center, low, queue):
    """R_i(n) from Q_i(n-1) and p_i(j | n-1) for j < servers."""
    servers = center.servers
    waiting = sum(
        (servers - 1 - j) * low[j] for j in range(servers - 1)
    )
    return center.demand / servers * (1.0 + queue + waiting)


def _advance_low_states(low, throughput, demand, complement_throughput):
    """Advance p_i(j | n-1) -> p_i(j | n) in place for j < servers.

    A zero ``complement_throughput`` means the rest of the network holds
    no demand, so the center is never idle.
    """
    idle = (
        low[0] * throughput / complement_throughput
        if complement_throughput > 0.0 else 0.0
    )
    for j in range(len(low) - 1, 0, -1):
        low[j] = throughput * demand / j * low[j - 1]
    low[0] = idle

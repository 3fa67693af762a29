"""The one mapping from SimulationParameters to a queueing network.

The contention-free view of the paper's model is a product-form closed
network: ``num_terms`` customers cycling through a terminal delay
(external think time), an optional internal-think delay, a CPU pool
(multi-server), and ``num_disks`` disks (single-server each, visited
uniformly). :func:`network_for_params` builds it; exact MVA
(:func:`mva_prediction`), the operational bounds
(:func:`repro.analysis.operational_bounds`) and the contention
surrogate (:mod:`repro.analytic.contention`) all read their demands
from it. The ``noop`` baseline of the simulator must track
:func:`mva_prediction` wherever the mpl limit is not binding (mpl >=
num_terms means no admission queueing, which MVA does not model).
"""

from repro.analytic.mva import (
    Center,
    DELAY,
    MULTI_SERVER,
    QUEUEING,
    solve_closed_network,
    solve_curve,
)


def network_for_params(params):
    """The MVA centers equivalent to a parameter configuration.

    Returns a list of :class:`Center`, always ``terminals`` first (the
    external think delay), then ``internal_think`` (a delay, only when
    ``int_think_time > 0``), ``cpu`` and ``disks``. Per transaction the
    CPU pool takes ``accesses * obj_cpu`` and the disks take
    ``accesses * obj_io``, with ``accesses`` the expected reads plus
    writes. One CPU is a queueing center, several are a multi-server
    center. The disks are one group, ``Center("disks", QUEUEING,
    per_disk, count=num_disks)``, each disk taking an equal share of
    the I/O. Infinite resources (``num_cpus`` or ``num_disks`` of
    None) become delay centers carrying the whole demand.
    """
    accesses = params.expected_reads() + params.expected_writes()
    cpu_demand = accesses * params.obj_cpu
    disk_demand = accesses * params.obj_io

    centers = [Center("terminals", DELAY, params.ext_think_time)]
    if params.int_think_time > 0.0:
        centers.append(
            Center("internal_think", DELAY, params.int_think_time)
        )

    if params.num_cpus is None:
        centers.append(Center("cpu", DELAY, cpu_demand))
    elif params.num_cpus == 1:
        centers.append(Center("cpu", QUEUEING, cpu_demand))
    else:
        centers.append(
            Center(
                "cpu", MULTI_SERVER, cpu_demand,
                servers=params.num_cpus,
            )
        )

    if params.num_disks is None:
        centers.append(Center("disks", DELAY, disk_demand))
    else:
        centers.append(
            Center(
                "disks", QUEUEING, disk_demand / params.num_disks,
                count=params.num_disks,
            )
        )
    return centers


def mva_prediction(params, population=None):
    """Contention-free MVA solution for a configuration.

    ``population`` defaults to the terminal count (``None`` is the
    sentinel: an explicit non-positive population is a ValueError, it
    never silently falls back to ``num_terms``). The prediction
    ignores the mpl admission limit and all data contention, so it is
    exact (modulo deterministic-vs-exponential service) only for the
    ``noop`` baseline with mpl >= num_terms, and an upper bound
    otherwise.
    """
    if population is None:
        population = params.num_terms
    elif population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    return solve_closed_network(network_for_params(params), population)


def predicted_curve(params, populations=None):
    """[(population, predicted throughput)] over a population sweep.

    ``populations`` of ``None`` sweeps 1..``num_terms``; an explicit
    empty sequence is a ValueError (it is not a request for the
    default sweep), as is any non-positive population in it.
    """
    if populations is not None:
        populations = list(populations)
        if not populations:
            raise ValueError(
                "populations must be a non-empty sequence or None"
            )
        bad = [p for p in populations if p < 1]
        if bad:
            raise ValueError(f"populations must be >= 1, got {bad}")
    top = max(populations) if populations is not None else params.num_terms
    curve = solve_curve(network_for_params(params), top)
    wanted = set(populations) if populations is not None else None
    return [
        (result.population, result.throughput)
        for result in curve
        if wanted is None or result.population in wanted
    ]

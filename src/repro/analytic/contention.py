"""Data-contention corrections over the contention-free MVA solution.

The MVA bridge (:mod:`repro.analytic.bridge`) predicts the *substrate*:
hardware queueing with zero data contention, exact only for the
``noop`` baseline. This module layers the missing physics on top as
fixed-point corrections, in the spirit of Di Sanzo's data-access-
pattern analytical model and Thomasian's heterogeneous data access
model (PAPERS.md): a transaction of ``k`` accesses against a database
of ``db_size`` objects, concurrent with ``m_eff - 1`` others, sees a
per-access conflict probability

    p = alpha * (m_eff - 1) * (k / 2) / db_size * w * (2 - w)

(the ``k/2`` is the mean number of locks a uniformly-progressing
transaction holds; ``w = k_w / k`` is the write fraction, and
``w(2-w)`` the probability an access/held-lock encounter involves at
least one write — shared read locks never conflict, so read-only
workloads see zero lock contention, matching the simulator). What a
conflict *costs* depends on the algorithm:

* **blocking** (dynamic 2PL) — each conflict blocks the requester for
  a fraction of the holder's remaining residence, and the holder may
  itself be blocked (wait chains): with blocked fraction
  ``f = k * p / 2``, the per-transaction lock wait is
  ``W = R_proc * f / (1 - beta * f)`` — ``alpha`` scales the conflict
  rate, ``beta`` the wait-chain depth — a virtual delay center
  *inside* the DBMS whose cascade denominator diverges as contention
  rises; this is what makes blocking *thrash* (DC-thrashing) rather
  than merely saturate;
* **immediate_restart** — each conflict aborts the requester after
  roughly half its work: mean attempts per commit
  ``A = 1 / (1 - p_abort)`` with ``p_abort = 1 - (1-p)^k``, a resource
  demand inflation ``F = 1 + (A-1) * beta/2``, plus the algorithm's
  adaptive restart delay (~ one response time per failed attempt)
  spent *outside* the DBMS;
* **optimistic** — conflicts are detected at commit, so every failed
  attempt wastes a whole pass: ``p_abort = 1 - exp(-alpha * m_eff *
  k_w * k / db_size)`` (write sets of concurrent committers hitting
  the read set) and ``F = 1 + (A-1) * beta``.

``alpha`` and ``beta`` are the per-algorithm
:class:`CorrectionCoefficients`; :mod:`repro.analytic.calibrate` fits
them against simulation on a seeded grid and ships the result here as
:data:`DEFAULT_COEFFS`.

The solver pins the concurrency level ``m_eff`` and runs a plain
Schweitzer approximate-MVA fixed point at it (contractive — all
contention quantities are closed-form in ``m_eff``), then solves the
concurrency self-consistency ``m_eff = min(mpl, X * R_in)`` as a 1-D
Illinois root find over that evaluator. Two regimes per prediction:

* a **closed** solve over terminals + DBMS at the full terminal
  population, whose root also reports whether the in-DBMS population
  actually reaches the mpl cap, and
* a **capped** solve over the DBMS centers alone at ``min(mpl,
  num_terms)`` customers (admission queue saturated), used only when
  the closed solve says the cap binds — when it does not (e.g. the
  adaptive restart delay drains the admission queue), saturation never
  establishes and the closed solution is the operative regime.

The network is :func:`repro.analytic.bridge.network_for_params`, the
same one exact MVA solves; its identical disks are one counted group,
so the cost per prediction is independent of ``num_disks``, cheap
enough to sweep the 113,400 evaluations of
:func:`repro.analytic.explore.default_space` in about 4.8 s (42 us per
evaluation, median of 3 runs on a 2-vCPU Xeon host). This
fixed-``m_eff`` solve is the package's one approximate MVA.

Every prediction carries an *uncertainty score*: its contention index
``m_eff * k^2 / db_size * w(2-w)`` relative to the largest index the
calibration grid covered, forced high when the fixed point failed to
converge or hit a probability/attempt clamp. Exploration treats
predictions past the threshold as surrogate-uncertain and spot-checks
them with real simulation.
"""

import math
from dataclasses import dataclass
from typing import Dict

from repro.analytic.bridge import network_for_params
from repro.analytic.mva import DELAY

#: Algorithms the surrogate has correction terms for. ``noop`` is the
#: contention-free baseline (both coefficients zero by construction).
SUPPORTED_ALGORITHMS = (
    "noop", "blocking", "immediate_restart", "optimistic"
)

#: Per-access conflict probability clamp (beyond this the linearized
#: conflict model is meaningless; the prediction is flagged).
P_CLAMP = 0.5

#: Per-attempt abort probability clamp.
P_ABORT_CLAMP = 0.98

#: Mean-attempts clamp (A = 1/(1-p_abort) explodes near the clamp).
A_CLAMP = 50.0

#: Fixed-point iteration bound and relative convergence tolerance.
MAX_ITERATIONS = 400
TOLERANCE = 1e-8


@dataclass(frozen=True)
class CorrectionCoefficients:
    """Fitted contention-correction coefficients for one algorithm.

    ``alpha`` scales the conflict/abort probability, ``beta`` scales
    what a conflict costs (blocked time for blocking, wasted work for
    the restart algorithms). ``(0, 0)`` disables the corrections and
    reproduces the contention-free solution exactly.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError(
                f"coefficients must be >= 0, got "
                f"alpha={self.alpha}, beta={self.beta}"
            )


#: Coefficients fitted by ``repro.analytic.calibrate`` on the seeded
#: Table 2 calibration grid (see EXPERIMENTS.md for the divergence
#: numbers); refit with ``repro-experiments calibrate`` after model
#: changes.
DEFAULT_COEFFS: Dict[str, CorrectionCoefficients] = {
    "noop": CorrectionCoefficients(0.0, 0.0),
    "blocking": CorrectionCoefficients(0.24509803921568626, 5.88),
    "immediate_restart": CorrectionCoefficients(
        0.257383009329331, 2.748712907831315
    ),
    "optimistic": CorrectionCoefficients(
        0.08416491103387917, 2.9943410040230383
    ),
}

#: Largest contention index the default calibration grid covered;
#: predictions beyond it are extrapolations (see
#: :meth:`SurrogatePrediction.uncertainty`).
DEFAULT_MAX_INDEX = 6.6000000000000005


@dataclass
class SurrogatePrediction:
    """One surrogate evaluation of (configuration, algorithm, mpl)."""

    algorithm: str
    mpl: int
    population: int
    #: Committed transactions per second.
    throughput: float
    #: Mean seconds from submission to commit (admission wait, resource
    #: residence, lock waits and restart passes included; external
    #: think excluded).
    response_time: float
    #: Mean execution attempts per commit (1.0 = no restarts).
    attempts: float
    #: Mean per-commit lock-wait seconds (blocking only; 0 otherwise).
    blocked_time: float
    #: Effective concurrent transactions the contention terms saw.
    m_eff: float
    #: m_eff * k^2 / db_size * w(2-w) — the dimensionless contention
    #: scale used for extrapolation detection (zero for read-only
    #: workloads, which the contention-free MVA already nails).
    contention_index: float
    #: Fixed point converged within MAX_ITERATIONS.
    converged: bool
    #: A probability or attempt clamp engaged (model out of its depth).
    clamped: bool
    #: Which solve bound the answer: "admission" (the mpl cap) or
    #: "population" (the closed terminal loop).
    binding: str

    def uncertainty(self, max_index=None):
        """Uncertainty score; >= 1.0 means "spot-check me".

        The score is the prediction's contention index relative to
        ``max_index`` (the largest index the calibration grid covered;
        :data:`DEFAULT_MAX_INDEX` when None). Non-convergence or a
        clamp floors the score at 2.0 — those predictions are suspect
        no matter how mild the contention looks.
        """
        if max_index is None:
            max_index = DEFAULT_MAX_INDEX
        score = (
            self.contention_index / max_index if max_index > 0
            else math.inf
        )
        if not self.converged or self.clamped:
            score = max(score, 2.0)
        return score


def _contention_terms(algorithm, m_eff, k, k_w, db, alpha, beta):
    """Conflict probability and mean attempts at a fixed ``m_eff``.

    Returns ``(p, attempts, clamped)``. With the concurrency level
    pinned, every contention quantity is a plain closed-form function
    of it — this is what makes the inner solve contractive.
    """
    clamped = False
    # Shared read locks never conflict with each other: an
    # access/held-lock encounter only conflicts when at least one
    # side is a write, probability w(2-w) with w the write fraction.
    # Read-only workloads therefore see zero lock contention, exactly
    # like the simulator.
    write_fraction = k_w / k if k > 0.0 else 0.0
    p = (
        alpha * max(m_eff - 1.0, 0.0) * (k / 2.0) / db
        * write_fraction * (2.0 - write_fraction)
    )
    if p > P_CLAMP:
        p = P_CLAMP
        clamped = True
    if algorithm == "immediate_restart":
        p_abort = 1.0 - (1.0 - p) ** k
    elif algorithm == "optimistic":
        p_abort = 1.0 - math.exp(-alpha * m_eff * k_w * k / db)
    else:
        return p, 1.0, clamped
    if p_abort > P_ABORT_CLAMP:
        p_abort = P_ABORT_CLAMP
        clamped = True
    attempts = 1.0 / (1.0 - p_abort)
    if attempts > A_CLAMP:
        attempts = A_CLAMP
        clamped = True
    return p, attempts, clamped


def _residence_split(d, servers, delay):
    """``(fixed, share)`` of one center with (inflated) demand ``d``.

    Every center kind shares one residence formula,
    ``r = fixed + share * (1 + seen - 0.5 * busy)`` with
    ``busy = min(X * d / s, seen, 1)``: a delay is ``fixed = d,
    share = 0``; a queueing or multi-server center is Seidmann's split,
    ``fixed = d (s-1)/s, share = d/s`` (``s = 1`` leaves ``fixed = 0,
    share = d``). Each case reproduces its kind's textbook residence
    bit for bit (``0.0 + x``, ``x / 1`` and ``d + 0.0 * finite`` are
    exact).
    """
    if delay:
        return d, 0.0
    return d * (servers - 1.0) / servers, d / servers


def _solve_fixed_m(layout, n, z, m_eff, algorithm, k, k_w, db,
                   alpha, beta, capped, queues):
    """Schweitzer solve with the concurrency level pinned at ``m_eff``.

    All contention quantities are computed from the *fixed* ``m_eff``
    (no population feedback), so the iteration is the plain Schweitzer
    contraction plus two mild inner couplings (the blocking lock-wait
    and the restart delay both track ``r_proc``) — it converges
    unconditionally in practice.

    ``layout`` is the DBMS part of :func:`network_for_params` in its
    fixed shape, ``(think, cpu, disk, disk_count)``: the internal-think
    demand (0.0 when there is none), ``(demand, servers, delay)`` for
    the CPU pool, and ``(demand, delay)`` for one of the
    ``disk_count`` disks (each a single server, so its busy fraction
    ``X * d`` needs no divisor).
    Everything that does not change between iterations is hoisted, so
    the loop is straight-line arithmetic over the two service centers.
    ``queues`` holds their queue lengths ``[cpu, disk]`` and is updated
    in place so callers can warm-start successive solves.

    ``capped`` solves the DBMS subnetwork alone (cycle excludes
    external think and restart delay: the saturated admission queue
    refills every freed slot instantly); otherwise the full closed
    loop over ``n`` customers.

    Returns ``(throughput, r_proc, blocked, attempts, converged,
    clamped)``.
    """
    p, attempts, clamped = _contention_terms(
        algorithm, m_eff, k, k_w, db, alpha, beta
    )
    waste = 0.5 * beta if algorithm == "immediate_restart" else beta
    inflation = 1.0 + (attempts - 1.0) * waste
    think, (cpu_d, cpu_s, cpu_delay), (disk_d, disk_delay), disk_count = (
        layout
    )
    # The internal-think delay's residence does not depend on queue
    # lengths: it is the first addend of r_proc (0.0 adds exactly).
    think *= inflation
    cpu_d *= inflation
    cpu_fixed, cpu_share = _residence_split(cpu_d, cpu_s, cpu_delay)
    disk_d *= inflation
    disk_fixed, disk_share = _residence_split(disk_d, 1.0, disk_delay)
    if algorithm == "blocking":
        # Wait-chain cascade: a conflicting request waits half the
        # blocker's processing time, but the blocker may itself be
        # blocked, adding its own wait pro rata. Solving
        # b = (beta*k*p/2) * (r_proc + b) in closed form gives the
        # 1/(1 - beta*k*p/2) amplification — this is what makes
        # blocking *thrash* (DC-thrashing) instead of merely
        # saturating as contention rises.
        fraction = k * p / 2.0
        denominator = beta * fraction
        if denominator > CASCADE_CLAMP:
            # Clamp the denominator only: the wait keeps growing
            # linearly in the blocked fraction past the clamp, so
            # throughput stays monotone (declining) instead of
            # rebounding once the amplification saturates.
            denominator = CASCADE_CLAMP
            clamped = True
        cascade = 1.0 - denominator
    else:
        fraction, cascade = 0.0, 1.0
    if capped:
        z, restart = 0.0, 0.0
    elif algorithm == "immediate_restart":
        restart = attempts - 1.0
    else:
        restart = 0.0
    ratio = (n - 1.0) / n
    q_cpu, q_disk = queues
    throughput = 0.0
    r_proc = 0.0
    blocked = 0.0
    converged = False
    for _ in range(MAX_ITERATIONS):
        # Deterministic-service residual correction: the simulator's
        # service times are deterministic, so the job found in service
        # costs a mean residual of d/2, not the full d exponential MVA
        # assumes. Subtracting half an in-service job
        # (utilization-weighted) removes the systematic low-mpl
        # underprediction.
        seen = q_cpu * ratio
        busy = throughput * cpu_d / cpu_s
        if busy > seen:
            busy = seen
        if busy > 1.0:
            busy = 1.0
        r_cpu = cpu_fixed + cpu_share * (1.0 + seen - 0.5 * busy)
        seen = q_disk * ratio
        busy = throughput * disk_d
        if busy > seen:
            busy = seen
        if busy > 1.0:
            busy = 1.0
        r_disk = disk_fixed + disk_share * (1.0 + seen - 0.5 * busy)
        r_proc = think + r_cpu + r_disk * disk_count
        # Exactly 0.0 where they do not apply: the lock wait for all
        # but blocking, the restart delay for all but an uncapped
        # immediate_restart, and z in a capped solve.
        blocked = r_proc * fraction / cascade
        cycle = z + restart * r_proc + (r_proc + blocked)
        new_throughput = n / cycle if cycle > 0.0 else 0.0
        q_cpu = new_throughput * r_cpu
        q_disk = new_throughput * r_disk
        change = new_throughput - throughput
        if change < 0.0:
            change = -change
        throughput = new_throughput
        if change <= TOLERANCE * (
            new_throughput if new_throughput > 1e-12 else 1e-12
        ):
            converged = True
            break
    queues[0] = q_cpu
    queues[1] = q_disk
    return throughput, r_proc, blocked, attempts, converged, clamped


#: Cap on the ``beta*k*p/2`` term inside the wait-chain cascade
#: denominator: past it the cascade amplification is held at
#: 1/(1-CASCADE_CLAMP) and the prediction is marked clamped.
CASCADE_CLAMP = 0.95

#: Root-finder budget and tolerance for the closed-mode concurrency
#: fixed point (Illinois method over m_eff).
MAX_PROBES = 80
M_TOLERANCE = 1e-9


def _solve_closed(layout, n, z, mpl, algorithm, k, k_w, db,
                  alpha, beta):
    """Closed-loop solve: find the self-consistent concurrency level.

    The closed mode's only troublesome feedback is the in-DBMS
    population ``m_eff = min(mpl, X * R_in)`` feeding the conflict
    probability — jointly iterating it oscillates (clamps turn the
    restart algorithms into relaxation oscillators). Instead treat it
    as a 1-D root find: ``g(m) = min(mpl, X(m) * R_in(m)) - m`` with
    :func:`_solve_fixed_m` as the evaluator, bracketed on
    ``[0, min(mpl, n)]`` and resolved by the Illinois method
    (deterministic, bracket never lost, superlinear in practice).

    Returns ``(throughput, r_in, attempts, blocked, m_eff, converged,
    clamped, cap_binding)``. ``cap_binding`` reports whether the
    closed loop pushes the in-DBMS population all the way to the mpl
    cap — when it does not (the root is interior, e.g. the adaptive
    restart delay drains the admission queue), the capped solve's
    saturation assumption is invalid and this solution is the right
    regime.
    """
    m_max = min(float(mpl), float(n))
    queues = [0.0, 0.0]

    def probe(m_eff):
        result = _solve_fixed_m(
            layout, n, z, m_eff, algorithm, k, k_w, db,
            alpha, beta, False, queues,
        )
        throughput, r_proc, blocked = result[0], result[1], result[2]
        gap = min(float(mpl), throughput * (r_proc + blocked)) - m_eff
        return result, gap

    def finish(m_eff, result, converged, cap_binding):
        throughput, r_proc, blocked, attempts, inner_ok, clamped = result
        return (
            throughput, r_proc + blocked, attempts, blocked, m_eff,
            converged and inner_ok, clamped, cap_binding,
        )

    if alpha == 0.0:
        # Contention-free (noop or zeroed coefficients): m_eff does
        # not feed back, a single solve is exact.
        result = _solve_fixed_m(
            layout, n, z, m_max, algorithm, k, k_w, db,
            alpha, beta, False, queues,
        )
        in_dbms = result[0] * (result[1] + result[2])
        return finish(min(float(mpl), in_dbms), result, True,
                      in_dbms >= m_max)

    hi, (result_hi, gap_hi) = m_max, probe(m_max)
    if gap_hi >= -M_TOLERANCE * max(m_max, 1.0):
        # Even at full concurrency the loop wants more customers in
        # the DBMS than the cap admits: the cap itself is the answer.
        return finish(m_max, result_hi, True, True)
    lo, (result_lo, gap_lo) = 0.0, probe(0.0)
    tolerance = M_TOLERANCE * max(m_max, 1.0)
    side = 0
    m_eff, result, gap = lo, result_lo, gap_lo
    converged = False
    for _ in range(MAX_PROBES):
        spread = gap_lo - gap_hi
        if spread > 0.0:
            m_eff = (gap_lo * hi - gap_hi * lo) / spread
        if spread <= 0.0 or not (lo < m_eff < hi):
            m_eff = 0.5 * (lo + hi)
        result, gap = probe(m_eff)
        if abs(gap) <= tolerance or hi - lo <= tolerance:
            converged = True
            break
        if gap > 0.0:
            lo, gap_lo = m_eff, gap
            if side == 1:
                gap_hi *= 0.5  # Illinois: stop false-position stalls
            side = 1
        else:
            hi, gap_hi = m_eff, gap
            if side == -1:
                gap_lo *= 0.5
            side = -1
    return finish(m_eff, result, converged, False)


def _solve_capped(layout, n, z, mpl, algorithm, k, k_w, db,
                  alpha, beta):
    """Admission-saturated solve: ``min(mpl, n)`` customers, DBMS only.

    With the admission queue never empty the concurrency level is
    pinned at the cap — a single fixed-m solve.

    Same return shape as :func:`_solve_closed`.
    """
    m_eff = float(min(mpl, n))
    queues = [0.0, 0.0]
    result = _solve_fixed_m(
        layout, int(m_eff), z, m_eff, algorithm, k, k_w, db,
        alpha, beta, True, queues,
    )
    throughput, r_proc, blocked, attempts, converged, clamped = result
    return (
        throughput, r_proc + blocked, attempts, blocked, m_eff,
        converged, clamped, True,
    )


#: ``(key, (z, layout))`` of the last network built; the key is every
#: input :func:`network_for_params` reads. ``explore`` evaluates all
#: (mpl, algorithm) pairs of a configuration in a row, and neither
#: enters the network, so they share one build.
_last_network = None


def _network_layout(params, accesses):
    """External think ``z`` and the DBMS centers in their fixed order.

    An optional internal-think delay, the CPU pool and the disks (one
    counted center, so solver cost is independent of num_disks; every
    disk is a single server, so its entry carries no server count).
    """
    global _last_network
    key = (
        accesses, params.obj_cpu, params.obj_io, params.ext_think_time,
        params.int_think_time, params.num_cpus, params.num_disks,
    )
    last = _last_network
    if last is None or last[0] != key:
        terminals, *inner, cpu, disks = network_for_params(params)
        last = _last_network = key, (terminals.demand, (
            inner[0].demand if inner else 0.0,
            (cpu.demand, cpu.servers, cpu.kind == DELAY),
            (disks.demand, disks.kind == DELAY),
            disks.count,
        ))
    return last[1]


def _check_domain(params):
    """Refuse a configuration the surrogate has no calibrated terms for.

    The network and the contention terms model the paper's closed,
    single-site, uniform-access system with object-level, CPU-free
    concurrency control. A sharded tier, a buffer pool, skewed disks,
    hotspot access, coarser lock granules, a CPU cost per CC request
    or an open arrival process would get a silent, wrong prediction
    (5.67 tps for a 4-node run that measures 16.77), so each raises
    ``ValueError`` naming the field instead.
    """
    if params.resource_model != "classic":
        raise ValueError(
            f"surrogate models only resource_model='classic', got "
            f"resource_model={params.resource_model!r}"
        )
    if params.nodes > 1:
        raise ValueError(
            f"surrogate models a single site, got nodes={params.nodes}"
        )
    if params.has_hotspot:
        raise ValueError(
            f"surrogate models uniform access, got hotspot skew "
            f"(hot_fraction={params.hot_fraction!r})"
        )
    if params.lock_granules is not None:
        raise ValueError(
            f"surrogate models object-level concurrency control, got "
            f"lock_granules={params.lock_granules}"
        )
    if params.cc_cpu > 0.0:
        raise ValueError(
            f"surrogate models free concurrency-control requests, got "
            f"cc_cpu={params.cc_cpu!r}"
        )
    if params.workload_model != "closed_classic":
        raise ValueError(
            f"surrogate models only workload_model='closed_classic', got "
            f"workload_model={params.workload_model!r}"
        )


def surrogate_prediction(params, algorithm, coeffs=None, mpl=None):
    """Contention-corrected throughput prediction for one grid point.

    ``params`` supplies the physical configuration; ``mpl`` is the
    multiprogramming level to predict at (None uses ``params.mpl``),
    so a sweep over mpls shares one parameter set. ``coeffs`` is a
    :class:`CorrectionCoefficients` (None looks the algorithm up in
    :data:`DEFAULT_COEFFS`). Unknown algorithms raise ``ValueError``
    — the surrogate only has correction terms for
    :data:`SUPPORTED_ALGORITHMS` — and so do an mpl below 1 and any
    configuration outside the calibrated domain (see
    :func:`_check_domain`).
    """
    if algorithm not in SUPPORTED_ALGORITHMS:
        raise ValueError(
            f"surrogate has no contention terms for {algorithm!r}; "
            f"supported: {SUPPORTED_ALGORITHMS}"
        )
    if mpl is None:
        mpl = params.mpl
    elif mpl < 1:
        raise ValueError(f"mpl must be >= 1, got {mpl}")
    _check_domain(params)
    if coeffs is None:
        coeffs = DEFAULT_COEFFS[algorithm]
    k_w = params.expected_writes()
    k = params.expected_reads() + k_w
    z, layout = _network_layout(params, k)
    db = float(params.db_size)
    population = params.num_terms

    closed = _solve_closed(
        layout, population, z, mpl, algorithm, k, k_w, db,
        coeffs.alpha, coeffs.beta,
    )
    if mpl < population and closed[7]:
        # The closed loop drives the in-DBMS population into the mpl
        # cap: admission saturates and the capped solve is the right
        # regime. An interior closed root (cap_binding False) means
        # steady state leaves the admission queue empty — e.g. the
        # adaptive restart delay throttling entry — and the capped
        # saturation assumption would be wrong, so it is not solved.
        solution = _solve_capped(
            layout, population, z, mpl, algorithm, k, k_w, db,
            coeffs.alpha, coeffs.beta,
        )
        binding = "admission"
    else:
        solution, binding = closed, "population"
    (throughput, r_in, attempts, blocked, m_eff, converged, clamped,
     _cap_binding) = solution
    write_fraction = k_w / k if k > 0.0 else 0.0
    if throughput > 0.0:
        # Little's law over the whole closed loop: everything that is
        # not external think (admission wait and restart delay
        # included) is response time.
        response = population / throughput - z
    else:
        response = math.inf
    return SurrogatePrediction(
        algorithm=algorithm,
        mpl=mpl,
        population=population,
        throughput=throughput,
        response_time=max(response, 0.0),
        attempts=attempts,
        blocked_time=blocked,
        m_eff=m_eff,
        contention_index=(
            m_eff * k * k / db
            * write_fraction * (2.0 - write_fraction)
        ),
        converged=converged,
        clamped=clamped,
        binding=binding,
    )

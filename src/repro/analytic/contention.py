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
so the cost per prediction is independent of ``num_disks`` and a
single prediction runs in well under a millisecond — cheap enough to
sweep millions of configurations (:mod:`repro.analytic.explore`).
This fixed-``m_eff`` solve is the package's one approximate MVA.

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
from repro.analytic.mva import DELAY, QUEUEING

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

    def uncertain(self, max_index=None, threshold=1.0):
        return self.uncertainty(max_index) > threshold


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


def _solve_fixed_m(groups, n, z, m_eff, algorithm, k, k_w, db,
                   alpha, beta, capped, queues):
    """Schweitzer solve with the concurrency level pinned at ``m_eff``.

    All contention quantities are computed from the *fixed* ``m_eff``
    (no population feedback), so the iteration is the plain Schweitzer
    contraction plus two mild inner couplings (the blocking lock-wait
    and the restart delay both track ``r_proc``) — it converges
    unconditionally in practice. ``queues`` is mutated in place so
    callers can warm-start successive solves.

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
    ratio = (n - 1.0) / n
    blocking = algorithm == "blocking"
    restarting = algorithm == "immediate_restart" and not capped
    count = len(groups)
    throughput = 0.0
    r_proc = 0.0
    blocked = 0.0
    converged = False
    for _ in range(MAX_ITERATIONS):
        r_proc = 0.0
        residences = []
        for index in range(count):
            kind, demand, servers, group_count = groups[index]
            demand_eff = demand * inflation
            if kind == DELAY:
                r = demand_eff
            else:
                seen = queues[index] * ratio
                # Deterministic-service residual correction: the
                # simulator's service times are deterministic, so the
                # job found in service costs a mean residual of d/2,
                # not the full d exponential MVA assumes. Subtracting
                # half an in-service job (utilization-weighted)
                # removes the systematic low-mpl underprediction.
                if kind == QUEUEING:
                    busy = throughput * demand_eff
                    if busy > seen:
                        busy = seen
                    if busy > 1.0:
                        busy = 1.0
                    r = demand_eff * (1.0 + seen - 0.5 * busy)
                else:  # Seidmann's split for the multi-server pool
                    busy = throughput * demand_eff / servers
                    if busy > seen:
                        busy = seen
                    if busy > 1.0:
                        busy = 1.0
                    r = (
                        demand_eff * (servers - 1.0) / servers
                        + demand_eff / servers
                        * (1.0 + seen - 0.5 * busy)
                    )
            residences.append(r)
            r_proc += r * group_count
        if blocking:
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
            blocked = r_proc * fraction / (1.0 - denominator)
        else:
            blocked = 0.0
        r_in = r_proc + blocked
        if capped:
            cycle = r_in
        else:
            delay_out = (attempts - 1.0) * r_proc if restarting else 0.0
            cycle = z + delay_out + r_in
        new_throughput = n / cycle if cycle > 0.0 else 0.0
        for index in range(count):
            queues[index] = new_throughput * residences[index]
        if abs(new_throughput - throughput) <= TOLERANCE * max(
            new_throughput, 1e-12
        ):
            throughput = new_throughput
            converged = True
            break
        throughput = new_throughput
    return throughput, r_proc, blocked, attempts, converged, clamped


#: Cap on the ``beta*k*p/2`` term inside the wait-chain cascade
#: denominator: past it the cascade amplification is held at
#: 1/(1-CASCADE_CLAMP) and the prediction is marked clamped.
CASCADE_CLAMP = 0.95

#: Root-finder budget and tolerance for the closed-mode concurrency
#: fixed point (Illinois method over m_eff).
MAX_PROBES = 80
M_TOLERANCE = 1e-9


def _solve_closed(groups, n, z, mpl, algorithm, k, k_w, db,
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
    queues = [0.0] * len(groups)

    def probe(m_eff):
        result = _solve_fixed_m(
            groups, n, z, m_eff, algorithm, k, k_w, db,
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
            groups, n, z, m_max, algorithm, k, k_w, db,
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


def _solve_capped(groups, n, z, mpl, algorithm, k, k_w, db,
                  alpha, beta):
    """Admission-saturated solve: ``min(mpl, n)`` customers, DBMS only.

    With the admission queue never empty the concurrency level is
    pinned at the cap — a single fixed-m solve.

    Same return shape as :func:`_solve_closed`.
    """
    m_eff = float(min(mpl, n))
    queues = [0.0] * len(groups)
    result = _solve_fixed_m(
        groups, int(m_eff), z, m_eff, algorithm, k, k_w, db,
        alpha, beta, True, queues,
    )
    throughput, r_proc, blocked, attempts, converged, clamped = result
    return (
        throughput, r_proc + blocked, attempts, blocked, m_eff,
        converged, clamped, True,
    )


def surrogate_prediction(params, algorithm, coeffs=None):
    """Contention-corrected throughput prediction for one grid point.

    ``params`` supplies the physical configuration *and* the mpl;
    ``coeffs`` is a :class:`CorrectionCoefficients` (None looks the
    algorithm up in :data:`DEFAULT_COEFFS`). Unknown algorithms raise
    ``ValueError`` — the surrogate only has correction terms for
    :data:`SUPPORTED_ALGORITHMS`.
    """
    if algorithm not in SUPPORTED_ALGORITHMS:
        raise ValueError(
            f"surrogate has no contention terms for {algorithm!r}; "
            f"supported: {SUPPORTED_ALGORITHMS}"
        )
    if coeffs is None:
        coeffs = DEFAULT_COEFFS[algorithm]
    # External think, then one (kind, demand, servers, count) group per
    # DBMS center: the disks are one counted group, so solver cost is
    # independent of num_disks.
    terminals, *dbms = network_for_params(params)
    z = terminals.demand
    groups = [
        (center.kind, center.demand, center.servers, center.count)
        for center in dbms
    ]
    k_r = params.expected_reads()
    k_w = params.expected_writes()
    k = k_r + k_w
    db = float(params.db_size)
    population = params.num_terms
    mpl = params.mpl

    closed = _solve_closed(
        groups, population, z, mpl, algorithm, k, k_w, db,
        coeffs.alpha, coeffs.beta,
    )
    if mpl < population:
        capped = _solve_capped(
            groups, population, z, mpl, algorithm, k, k_w, db,
            coeffs.alpha, coeffs.beta,
        )
    else:
        capped = None
    if capped is not None and closed[7]:
        # The closed loop drives the in-DBMS population into the mpl
        # cap: admission saturates and the capped solve is the right
        # regime. An interior closed root (cap_binding False) means
        # steady state leaves the admission queue empty — e.g. the
        # adaptive restart delay throttling entry — and the capped
        # saturation assumption would be wrong.
        solution, binding = capped, "admission"
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


def surrogate_curve(params, algorithm, mpls, coeffs=None):
    """[(mpl, SurrogatePrediction)] over an mpl sweep."""
    return [
        (mpl, surrogate_prediction(
            params.with_changes(mpl=mpl), algorithm, coeffs
        ))
        for mpl in mpls
    ]


def optimal_mpl(params, algorithm, mpls, coeffs=None):
    """(mpl, prediction) maximizing predicted throughput over ``mpls``.

    Ties break toward the *lowest* mpl (less concurrency for the same
    throughput is strictly better operationally).
    """
    curve = surrogate_curve(params, algorithm, mpls, coeffs)
    if not curve:
        raise ValueError("mpls must be non-empty")
    return max(curve, key=lambda pair: (pair[1].throughput, -pair[0]))

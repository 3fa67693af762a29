"""The contention-corrected surrogate: solver properties and physics.

Three layers of evidence: structural invariants (convergence, regime
selection, determinism), limiting cases that must agree with the
contention-free MVA exactly (read-only workloads, zero coefficients),
and the qualitative physics the paper demands (thrashing, algorithm
ordering under contention) — plus one real cross-validation of the
noop baseline against the discrete-event simulator.
"""

import pytest

from repro.analytic import contention
from repro.analytic.contention import (
    DEFAULT_COEFFS,
    DEFAULT_MAX_INDEX,
    SUPPORTED_ALGORITHMS,
    CorrectionCoefficients,
    surrogate_prediction,
)
from repro.analytic import network_for_params
from repro.analytic.mva import DELAY, QUEUEING
from repro.core import RunConfig, SimulationParameters, run_simulation
from repro.faults import CpuDegradationSpec, DiskFaultSpec, FaultSpec

BASE = SimulationParameters.table2()
HOT = BASE.with_changes(db_size=300)


class TestValidation:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="no contention terms"):
            surrogate_prediction(BASE.with_changes(mpl=5), "certified")

    @pytest.mark.parametrize("mpl", [0, -3])
    def test_mpl_below_one_rejected(self, mpl):
        with pytest.raises(ValueError, match=f"mpl must be >= 1, got {mpl}"):
            surrogate_prediction(BASE, "blocking", mpl=mpl)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            CorrectionCoefficients(-0.1, 1.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            CorrectionCoefficients(1.0, -2.0)

    def test_default_coefficients_cover_all_algorithms(self):
        assert set(DEFAULT_COEFFS) == set(SUPPORTED_ALGORITHMS)

    def test_noop_default_coefficients_are_zero(self):
        assert DEFAULT_COEFFS["noop"] == CorrectionCoefficients(0.0, 0.0)


class TestDomain:
    """Configurations without calibrated terms are refused, by field."""

    def test_non_classic_resource_model_refused(self):
        params = BASE.with_changes(
            mpl=5, resource_model="buffered", buffer_capacity=100,
        )
        with pytest.raises(ValueError, match="resource_model='buffered'"):
            surrogate_prediction(params, "blocking")

    def test_multiple_nodes_refused(self):
        with pytest.raises(ValueError, match="nodes=4"):
            surrogate_prediction(
                BASE.with_changes(mpl=5, nodes=4), "blocking"
            )

    def test_hotspot_refused(self):
        params = BASE.with_changes(
            mpl=5, hot_fraction=0.02, hot_access_prob=0.8,
        )
        with pytest.raises(ValueError, match="hot_fraction=0.02"):
            surrogate_prediction(params, "blocking")

    def test_lock_granules_refused(self):
        params = BASE.with_changes(mpl=5, lock_granules=10)
        with pytest.raises(ValueError, match="lock_granules=10"):
            surrogate_prediction(params, "blocking")

    def test_cc_cpu_refused(self):
        params = BASE.with_changes(mpl=5, cc_cpu=0.01)
        with pytest.raises(ValueError, match="cc_cpu=0.01"):
            surrogate_prediction(params, "optimistic")

    @pytest.mark.parametrize("faults, shown", [
        (FaultSpec(disk=DiskFaultSpec(mttf=10, mttr=5)),
         "disk mttf=10s mttr=5s"),
        (FaultSpec(cpu=CpuDegradationSpec(
            mean_interval=10, mean_duration=10, factor=3)),
         "cpu x3 every ~10s for ~10s"),
    ])
    def test_faults_refused(self, faults, shown):
        # At Table 2, mpl 25, disk faults (mttf 10 s, mttr 5 s) measure
        # 2.283 tps for blocking where the fault-free answer is 5.663.
        params = BASE.with_changes(mpl=5, faults=faults)
        with pytest.raises(ValueError, match=f"faults='{shown}'"):
            surrogate_prediction(params, "blocking")

    def test_null_faults_allowed(self):
        params = BASE.with_changes(mpl=5)
        assert surrogate_prediction(
            params.with_changes(faults=FaultSpec()), "blocking"
        ) == surrogate_prediction(params, "blocking")

    def test_open_workload_refused(self):
        params = BASE.with_changes(
            mpl=5, workload_model="open_poisson",
            workload_spec={"rate": 8.0},
        )
        with pytest.raises(ValueError, match="workload_model='open_poisson'"):
            surrogate_prediction(params, "optimistic")


class TestSolverInvariants:
    @pytest.mark.parametrize("algorithm", SUPPORTED_ALGORITHMS)
    @pytest.mark.parametrize("mpl", [1, 5, 25, 100, 200])
    def test_converges_everywhere(self, algorithm, mpl):
        prediction = surrogate_prediction(
            HOT.with_changes(mpl=mpl), algorithm
        )
        assert prediction.converged
        assert prediction.throughput > 0.0

    @pytest.mark.parametrize("algorithm", SUPPORTED_ALGORITHMS)
    def test_deterministic(self, algorithm):
        params = HOT.with_changes(mpl=25)
        assert surrogate_prediction(
            params, algorithm
        ) == surrogate_prediction(params, algorithm)

    @pytest.mark.parametrize("algorithm", SUPPORTED_ALGORITHMS)
    def test_mpl_argument_matches_params_mpl(self, algorithm):
        for mpl in (1, 5, 25, 200):
            assert surrogate_prediction(
                HOT, algorithm, mpl=mpl
            ) == surrogate_prediction(HOT.with_changes(mpl=mpl), algorithm)

    def test_mpl_at_population_binds_population(self):
        prediction = surrogate_prediction(
            BASE.with_changes(mpl=BASE.num_terms), "blocking"
        )
        assert prediction.binding == "population"

    def test_small_mpl_binds_admission(self):
        prediction = surrogate_prediction(
            BASE.with_changes(mpl=2), "noop"
        )
        assert prediction.binding == "admission"

    def test_m_eff_never_exceeds_mpl(self):
        for mpl in (2, 10, 50, 200):
            prediction = surrogate_prediction(
                HOT.with_changes(mpl=mpl), "blocking"
            )
            assert prediction.m_eff <= mpl + 1e-6

    def test_disk_collapse_matches_disk_count(self):
        few = network_for_params(BASE.with_changes(num_disks=2))
        many = network_for_params(BASE.with_changes(num_disks=8))
        # Same group structure regardless of disk count: the disks
        # fold into one counted group, so solver cost is flat.
        assert len(few) == len(many)
        assert (few[-1].name, few[-1].count) == ("disks", 2)
        assert (many[-1].name, many[-1].count) == ("disks", 8)


class TestContentionFreeLimits:
    @pytest.mark.parametrize(
        "algorithm", ["blocking", "immediate_restart"]
    )
    def test_read_only_equals_noop(self, algorithm):
        """Shared read locks never conflict: a read-only workload must
        reduce to the contention-free baseline exactly."""
        params = BASE.with_changes(write_prob=0.0, mpl=25)
        noop = surrogate_prediction(params, "noop")
        corrected = surrogate_prediction(params, algorithm)
        assert corrected.throughput == pytest.approx(
            noop.throughput, rel=1e-9
        )
        assert corrected.contention_index == 0.0

    def test_zero_coefficients_equal_noop(self):
        params = HOT.with_changes(mpl=50)
        noop = surrogate_prediction(params, "noop")
        zeroed = surrogate_prediction(
            params, "blocking", CorrectionCoefficients(0.0, 0.0)
        )
        assert zeroed.throughput == pytest.approx(
            noop.throughput, rel=1e-9
        )

    def test_noop_monotone_in_mpl(self):
        throughputs = [
            surrogate_prediction(BASE.with_changes(mpl=mpl), "noop").throughput
            for mpl in (1, 2, 5, 10, 25, 50)
        ]
        assert throughputs == sorted(throughputs)


class TestContentionPhysics:
    def test_blocking_thrashes(self):
        """The wait-chain cascade must make throughput *decline* past
        the thrashing point, not merely saturate."""
        peak = surrogate_prediction(
            HOT.with_changes(mpl=10), "blocking"
        )
        thrashed = surrogate_prediction(
            HOT.with_changes(mpl=100), "blocking"
        )
        assert thrashed.throughput < 0.9 * peak.throughput

    def test_restart_algorithms_decline_under_contention(self):
        for algorithm in ("immediate_restart", "optimistic"):
            low = surrogate_prediction(
                HOT.with_changes(mpl=10), algorithm
            )
            high = surrogate_prediction(
                HOT.with_changes(mpl=50), algorithm
            )
            assert high.throughput < low.throughput

    def test_contention_hurts(self):
        for algorithm in ("blocking", "immediate_restart", "optimistic"):
            cool = surrogate_prediction(
                BASE.with_changes(db_size=5000, mpl=25), algorithm
            )
            hot = surrogate_prediction(
                BASE.with_changes(db_size=300, mpl=25), algorithm
            )
            assert hot.throughput < cool.throughput

    def test_blocking_blocked_time_grows_with_mpl(self):
        low = surrogate_prediction(HOT.with_changes(mpl=5), "blocking")
        high = surrogate_prediction(HOT.with_changes(mpl=50), "blocking")
        assert high.blocked_time > low.blocked_time > 0.0

    def test_optimal_mpl_interior_under_contention(self):
        throughput = {
            mpl: surrogate_prediction(
                HOT.with_changes(mpl=mpl), "immediate_restart"
            ).throughput
            for mpl in (5, 10, 25, 50, 100, 200)
        }
        mpl = max(throughput, key=throughput.get)
        assert mpl < 200
        assert throughput[mpl] > 0.0


class TestUncertainty:
    def test_read_only_never_uncertain(self):
        prediction = surrogate_prediction(
            BASE.with_changes(write_prob=0.0, mpl=200), "blocking"
        )
        assert prediction.uncertainty() == 0.0

    def test_extreme_contention_flagged(self):
        prediction = surrogate_prediction(
            BASE.with_changes(
                db_size=50, max_size=24, write_prob=1.0, mpl=200
            ),
            "blocking",
        )
        assert prediction.clamped
        assert prediction.uncertainty() >= 2.0

    def test_uncertainty_scales_with_boundary(self):
        # A mild, unclamped point: the score is index/boundary, so
        # halving the boundary doubles it.
        prediction = surrogate_prediction(
            BASE.with_changes(mpl=25), "blocking"
        )
        assert not prediction.clamped
        assert prediction.uncertainty() > 0.0
        assert prediction.uncertainty(
            max_index=DEFAULT_MAX_INDEX / 2
        ) == pytest.approx(2 * prediction.uncertainty())

    def test_mild_contention_not_flagged(self):
        prediction = surrogate_prediction(
            BASE.with_changes(db_size=5000, mpl=5), "blocking"
        )
        assert prediction.uncertainty() <= 1.0


class TestNoopSimulatorAgreement:
    """The satellite cross-check: on the contention-free baseline the
    surrogate *is* the MVA substrate, and it must track the
    discrete-event simulator within CI-friendly tolerance."""

    RUN = RunConfig(batches=5, batch_time=20.0, warmup_batches=1, seed=33)

    @pytest.mark.parametrize("mpl", [2, 10, 50])
    def test_noop_throughput_within_tolerance(self, mpl):
        params = BASE.with_changes(mpl=mpl)
        simulated = run_simulation(
            params, algorithm="noop", run=self.RUN
        ).throughput
        predicted = surrogate_prediction(params, "noop").throughput
        assert predicted == pytest.approx(simulated, rel=0.10)


def _reference_solve_fixed_m(groups, n, z, m_eff, algorithm, k, k_w, db,
                             alpha, beta, capped, queues):
    """The generic per-group Schweitzer loop, kept as the reference.

    ``groups`` holds one ``(kind, demand, servers, count)`` per DBMS
    center of :func:`network_for_params`, and ``queues`` one queue
    length per group. Every kind branches to its own residence formula
    and every per-solve constant is recomputed each iteration.
    """
    p, attempts, clamped = contention._contention_terms(
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
    for _ in range(contention.MAX_ITERATIONS):
        r_proc = 0.0
        residences = []
        for index in range(count):
            kind, demand, servers, group_count = groups[index]
            demand_eff = demand * inflation
            if kind == DELAY:
                r = demand_eff
            else:
                seen = queues[index] * ratio
                if kind == QUEUEING:
                    busy = throughput * demand_eff
                    if busy > seen:
                        busy = seen
                    if busy > 1.0:
                        busy = 1.0
                    r = demand_eff * (1.0 + seen - 0.5 * busy)
                else:
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
            fraction = k * p / 2.0
            denominator = beta * fraction
            if denominator > contention.CASCADE_CLAMP:
                denominator = contention.CASCADE_CLAMP
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
        if abs(new_throughput - throughput) <= contention.TOLERANCE * max(
            new_throughput, 1e-12
        ):
            throughput = new_throughput
            converged = True
            break
        throughput = new_throughput
    return throughput, r_proc, blocked, attempts, converged, clamped


#: Default coefficients, and coefficients large enough to force the
#: probability, attempt and cascade clamps.
PARITY_COEFFS = (None, CorrectionCoefficients(2.0, 9.0))
PARITY_MPLS = (1, 5, 50, 200)


def _parity_grid(int_think_time, num_cpus, num_disks):
    params = BASE.with_changes(
        int_think_time=int_think_time, num_cpus=num_cpus,
        num_disks=num_disks,
    )
    for algorithm in SUPPORTED_ALGORITHMS:
        for mpl in PARITY_MPLS:
            for coeffs in PARITY_COEFFS:
                yield params.with_changes(mpl=mpl), algorithm, coeffs


def _reference_prediction(monkeypatch, params, algorithm, coeffs):
    """``surrogate_prediction`` with the reference loop as its solver."""
    groups = [
        (center.kind, center.demand, center.servers, center.count)
        for center in network_for_params(params)[1:]
    ]

    def solve(layout, n, z, m_eff, algorithm, k, k_w, db, alpha, beta,
              capped, queues):
        # One queue per group; the solver's warm-start list holds the
        # CPU's and the disks', the last two groups (an internal-think
        # delay's queue is never read).
        group_queues = [0.0] * (len(groups) - 2) + list(queues)
        result = _reference_solve_fixed_m(
            groups, n, z, m_eff, algorithm, k, k_w, db, alpha, beta,
            capped, group_queues,
        )
        queues[:] = group_queues[-2:]
        return result

    with monkeypatch.context() as patch:
        patch.setattr(contention, "_solve_fixed_m", solve)
        return surrogate_prediction(params, algorithm, coeffs)


class TestSolverParity:
    """The straight-line solver against the generic per-group loop.

    Every center layout :func:`network_for_params` can build (internal
    think or not; infinite, single and pooled CPUs; infinite, one and
    several disks), every algorithm, default and clamp-forcing
    coefficients: the predictions must be equal field for field, not
    merely close. The exploration golden digests cover finite CPUs and
    disks without internal think or clamps only.
    """

    @pytest.mark.parametrize("num_disks", [None, 1, 2, 8])
    @pytest.mark.parametrize("num_cpus", [None, 1, 2, 10])
    @pytest.mark.parametrize("int_think_time", [0.0, 0.3])
    def test_bit_identical(self, monkeypatch, int_think_time, num_cpus,
                           num_disks):
        for params, algorithm, coeffs in _parity_grid(
            int_think_time, num_cpus, num_disks
        ):
            expected = _reference_prediction(
                monkeypatch, params, algorithm, coeffs
            )
            assert surrogate_prediction(
                params, algorithm, coeffs
            ) == expected, (params, algorithm, coeffs)

    def test_grid_reaches_clamps_and_both_regimes(self):
        predictions = [
            surrogate_prediction(params, algorithm, coeffs)
            for params, algorithm, coeffs in _parity_grid(0.3, 2, 2)
        ]
        assert any(p.clamped for p in predictions)
        assert any(not p.clamped for p in predictions)
        assert {p.binding for p in predictions} == {
            "admission", "population"
        }

"""Tests for the runtime invariant checker.

Two acceptance bars from opposite directions:

* **No false positives** — strict checking across every paper algorithm
  on both finite and infinite resources reports zero violations, and
  the checked run stays bit-identical to a bare one (the checker is a
  pure observer).
* **No false negatives** — deliberately broken engines (double commit
  emission, duplicated commit points) are caught at the violating event
  with a structured :class:`InvariantViolationError`, and the synthetic
  automaton tests pin each invariant individually.
"""

import pytest

from repro.core import RunConfig, SimulationParameters, run_simulation
from repro.core.engine import SystemModel
from repro.obs import (
    INVARIANT_MODES,
    InvariantChecker,
    InvariantViolationError,
    resolve_invariant_mode,
)
from repro.experiments.configs import experiment_configs
from repro.obs.events import (
    CC_GRANT,
    RESOURCE_BUSY,
    RESOURCE_IDLE,
    TX_ADMIT,
    TX_BLOCK,
    TX_COMMIT_POINT,
    TX_COMPLETE,
    TX_RESTART,
    TX_SUBMIT,
)
from repro.obs.invariants import MAX_RECORDED_VIOLATIONS

ALGORITHMS = ["blocking", "immediate_restart", "optimistic"]

FINITE = SimulationParameters(
    db_size=60, min_size=2, max_size=6, write_prob=0.5,
    num_terms=10, mpl=8, ext_think_time=0.2,
    obj_io=0.01, obj_cpu=0.005, num_cpus=1, num_disks=2,
)
INFINITE = FINITE.with_changes(num_cpus=None, num_disks=None)
RUN = RunConfig(batches=3, batch_time=5.0, warmup_batches=1, seed=1234)


class _Tx:
    """Minimal stand-in for a Transaction in synthetic-event tests."""

    def __init__(self, tx_id):
        self.id = tx_id


def drive(checker, kind, time, **fields):
    """Deliver one synthetic event straight to the checker's handler."""
    checker.handlers()[kind](time, fields)


class TestCleanRuns:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("params", [FINITE, INFINITE],
                             ids=["finite", "infinite"])
    def test_strict_run_has_zero_violations(self, algorithm, params):
        result = run_simulation(
            params, algorithm=algorithm, run=RUN, invariants="strict"
        )
        report = result.diagnostics["invariants"]
        assert report["mode"] == "strict"
        assert report["violations"] == []
        assert report["suppressed"] == 0
        # The checker actually saw the run, not an empty stream.
        assert report["events_checked"] > result.totals["commits"]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_checked_run_is_bit_identical_to_bare(self, algorithm):
        bare = run_simulation(INFINITE, algorithm=algorithm, run=RUN)
        checked = run_simulation(
            INFINITE, algorithm=algorithm, run=RUN, invariants="strict"
        )
        assert checked.totals == bare.totals
        assert checked.summary() == bare.summary()

    def test_off_leaves_diagnostics_untouched(self):
        result = run_simulation(
            INFINITE, algorithm="blocking", run=RUN, invariants="off"
        )
        assert result.diagnostics is None

    def test_warn_mode_reports_through_diagnostics(self):
        result = run_simulation(
            FINITE, algorithm="blocking", run=RUN, invariants="warn"
        )
        report = result.diagnostics["invariants"]
        assert report["mode"] == "warn"
        assert report["violations"] == []


class _DoubleCompleteModel(SystemModel):
    """Broken engine: announces every commit twice."""

    def _complete_commit(self, tx):
        super()._complete_commit(tx)
        self.bus.emit(TX_COMPLETE, tx=tx)


class _DoubleCommitPointModel(SystemModel):
    """Broken engine: emits a second commit point per commit."""

    def _install_writes(self, tx):
        super()._install_writes(tx)
        if self.bus.wants_commit_point:
            self.bus.emit(TX_COMMIT_POINT, tx=tx)


class TestBrokenEngineCaught:
    def _run_broken(self, model_class, mode="strict"):
        checker = InvariantChecker(mode=mode)
        model = model_class(
            FINITE, algorithm="blocking", seed=1234,
            subscribers=(checker,),
        )
        model.run_until(10.0)
        return checker

    def test_double_complete_raises_structured_error(self):
        with pytest.raises(InvariantViolationError) as excinfo:
            self._run_broken(_DoubleCompleteModel)
        violation = excinfo.value.violation
        assert violation.invariant == "conservation"
        assert violation.details["event"] == "commit"
        assert violation.time >= 0.0
        # The violation record is JSON-shaped for diagnostics.
        assert set(violation.to_dict()) == {
            "time", "invariant", "message", "details",
        }

    def test_double_commit_point_raises(self):
        with pytest.raises(InvariantViolationError) as excinfo:
            self._run_broken(_DoubleCommitPointModel)
        assert excinfo.value.violation.invariant == (
            "commit_point_ordering"
        )

    def test_violations_are_assertion_errors(self):
        # The taxonomy exempts AssertionError from retry/degradation;
        # a broken engine must never be retried into silence.
        with pytest.raises(AssertionError):
            self._run_broken(_DoubleCompleteModel)

    def test_warn_mode_records_and_finishes(self):
        checker = self._run_broken(_DoubleCompleteModel, mode="warn")
        assert checker.violation_count > 0
        assert all(
            v.invariant == "conservation" for v in checker.violations
        )


class TestAutomatonUnit:
    def test_admit_before_submit_violates_conservation(self):
        checker = InvariantChecker(mode="strict")
        with pytest.raises(InvariantViolationError) as excinfo:
            drive(checker, TX_ADMIT, 1.0, tx=_Tx(7))
        assert excinfo.value.violation.invariant == "conservation"

    def test_commit_without_commit_point_violates_ordering(self):
        checker = InvariantChecker(mode="strict")
        tx = _Tx(1)
        drive(checker, TX_SUBMIT, 0.0, tx=tx)
        drive(checker, TX_ADMIT, 0.1, tx=tx)
        with pytest.raises(InvariantViolationError) as excinfo:
            drive(checker, TX_COMPLETE, 0.2, tx=tx)
        assert excinfo.value.violation.invariant == (
            "commit_point_ordering"
        )

    def test_clean_lifecycle_accepted(self):
        checker = InvariantChecker(mode="strict")
        tx = _Tx(1)
        drive(checker, TX_SUBMIT, 0.0, tx=tx)
        drive(checker, TX_ADMIT, 0.1, tx=tx)
        drive(checker, TX_COMMIT_POINT, 0.2, tx=tx)
        drive(checker, TX_COMPLETE, 0.3, tx=tx)
        assert checker.violation_count == 0
        assert checker.events_checked == 4

    def test_clock_regression_detected(self):
        checker = InvariantChecker(mode="strict")
        drive(checker, TX_SUBMIT, 5.0, tx=_Tx(1))
        with pytest.raises(InvariantViolationError) as excinfo:
            drive(checker, TX_SUBMIT, 4.0, tx=_Tx(2))
        assert excinfo.value.violation.invariant == (
            "clock_monotonicity"
        )

    def test_idle_before_busy_violates_pairing(self):
        checker = InvariantChecker(mode="strict")
        with pytest.raises(InvariantViolationError) as excinfo:
            drive(checker, RESOURCE_IDLE, 0.0, resource="cpu")
        assert excinfo.value.violation.invariant == "resource_pairing"

    def test_busy_idle_pairs_accepted(self):
        checker = InvariantChecker(mode="strict")
        drive(checker, RESOURCE_BUSY, 0.0, resource="disk", disk=0)
        drive(checker, RESOURCE_BUSY, 0.1, resource="disk", disk=1)
        drive(checker, RESOURCE_IDLE, 0.2, resource="disk", disk=0)
        drive(checker, RESOURCE_IDLE, 0.3, resource="disk", disk=1)
        assert checker.violation_count == 0

    def test_warn_mode_caps_recorded_violations(self):
        checker = InvariantChecker(mode="warn")
        for index in range(MAX_RECORDED_VIOLATIONS + 5):
            drive(checker, RESOURCE_IDLE, float(index), resource="cpu")
        assert len(checker.violations) == MAX_RECORDED_VIOLATIONS
        assert checker.suppressed == 5
        assert checker.violation_count == MAX_RECORDED_VIOLATIONS + 5


class TestLockExclusivity:
    def _checker(self):
        return InvariantChecker(mode="strict", check_locks=True)

    def _admit(self, checker, tx, time):
        drive(checker, TX_SUBMIT, time, tx=tx)
        drive(checker, TX_ADMIT, time, tx=tx)

    def test_conflicting_write_grants_violate(self):
        checker = self._checker()
        a, b = _Tx(1), _Tx(2)
        self._admit(checker, a, 0.0)
        self._admit(checker, b, 0.0)
        drive(checker, CC_GRANT, 0.1, tx=a, obj=5, op="write")
        with pytest.raises(InvariantViolationError) as excinfo:
            drive(checker, CC_GRANT, 0.2, tx=b, obj=5, op="write")
        assert excinfo.value.violation.invariant == "lock_exclusivity"

    def test_read_while_foreign_write_violates(self):
        checker = self._checker()
        a, b = _Tx(1), _Tx(2)
        self._admit(checker, a, 0.0)
        self._admit(checker, b, 0.0)
        drive(checker, CC_GRANT, 0.1, tx=a, obj=5, op="write")
        with pytest.raises(InvariantViolationError):
            drive(checker, CC_GRANT, 0.2, tx=b, obj=5, op="read")

    def test_commit_releases_for_the_next_holder(self):
        checker = self._checker()
        a, b = _Tx(1), _Tx(2)
        self._admit(checker, a, 0.0)
        self._admit(checker, b, 0.0)
        drive(checker, CC_GRANT, 0.1, tx=a, obj=5, op="write")
        drive(checker, TX_COMMIT_POINT, 0.2, tx=a)
        drive(checker, TX_COMPLETE, 0.3, tx=a)
        drive(checker, CC_GRANT, 0.4, tx=b, obj=5, op="write")
        assert checker.violation_count == 0

    def test_shared_reads_allowed(self):
        checker = self._checker()
        a, b = _Tx(1), _Tx(2)
        self._admit(checker, a, 0.0)
        self._admit(checker, b, 0.0)
        drive(checker, CC_GRANT, 0.1, tx=a, obj=5, op="read")
        drive(checker, CC_GRANT, 0.2, tx=b, obj=5, op="read")
        assert checker.violation_count == 0

    def _grant_against_blocked_holder(self, checker, a, b):
        """b's write is granted at t=0.3 while blocked a holds a read."""
        self._admit(checker, a, 0.0)
        self._admit(checker, b, 0.0)
        drive(checker, CC_GRANT, 0.1, tx=a, obj=5, op="read")
        drive(checker, TX_BLOCK, 0.2, tx=a)
        drive(checker, CC_GRANT, 0.3, tx=b, obj=5, op="write")

    def test_grant_settled_by_victim_restart_at_same_instant(self):
        # Blocking releases a deadlock victim's locks when it picks the
        # victim; a waiter granted before the victim's restart event is
        # delivered is not a violation.
        checker = self._checker()
        a, b = _Tx(1), _Tx(2)
        self._grant_against_blocked_holder(checker, a, b)
        drive(checker, TX_RESTART, 0.3, tx=a, reason="deadlock")
        drive(checker, CC_GRANT, 0.4, tx=b, obj=6, op="write")
        assert checker.violation_count == 0

    @pytest.mark.parametrize("next_event", [
        (CC_GRANT, 0.3, {"obj": 6, "op": "read"}),
        (TX_COMMIT_POINT, 0.3, {}),
        (TX_BLOCK, 0.3, {}),
        (TX_RESTART, 0.4, {"reason": "deadlock"}),
    ], ids=["granted", "commits", "blocks_again", "later_restart"])
    def test_blocked_holder_not_restarting_violates(self, next_event):
        checker = self._checker()
        a, b = _Tx(1), _Tx(2)
        self._grant_against_blocked_holder(checker, a, b)
        kind, time, fields = next_event
        with pytest.raises(InvariantViolationError) as excinfo:
            drive(checker, kind, time, tx=a, **fields)
        assert excinfo.value.violation.invariant == "lock_exclusivity"
        assert excinfo.value.violation.details["holders"] == [1]

    def test_grant_against_running_holder_violates_at_once(self):
        checker = self._checker()
        a, b, c = _Tx(1), _Tx(2), _Tx(3)
        for tx in (a, b, c):
            self._admit(checker, tx, 0.0)
        drive(checker, CC_GRANT, 0.1, tx=a, obj=5, op="read")
        drive(checker, CC_GRANT, 0.1, tx=c, obj=5, op="read")
        drive(checker, TX_BLOCK, 0.2, tx=a)
        with pytest.raises(InvariantViolationError):
            drive(checker, CC_GRANT, 0.3, tx=b, obj=5, op="write")

    def test_deadlock_victim_regrant_has_no_violations(self):
        # Exp 2 thrashing point (infinite resources, mpl 200) under
        # blocking: at t=12.2933 tx 295 is granted a write on object
        # 105 that deadlock victim tx 386 held a read grant on, just
        # before tx 386's restart event at the same instant.
        params = experiment_configs()["exp2_infinite"].params
        checker = InvariantChecker(mode="strict")
        model = SystemModel(
            params.with_changes(mpl=200), "blocking", seed=25,
            subscribers=(checker,),
        )
        model.run_until(15.0)
        assert checker.violation_count == 0
        assert model.metrics.restarts.total > 0

    def test_lock_checks_auto_enabled_only_for_blocking(self):
        for algorithm, expected in [("blocking", True),
                                    ("optimistic", False)]:
            checker = InvariantChecker(mode="strict")
            SystemModel(
                INFINITE, algorithm=algorithm, seed=1,
                subscribers=(checker,),
            )
            assert checker.check_locks is expected


class TestModeResolution:
    def test_explicit_mode_wins(self):
        assert resolve_invariant_mode("warn", environ={}) == "warn"

    def test_env_fallback(self):
        env = {"REPRO_INVARIANTS": "strict"}
        assert resolve_invariant_mode(None, environ=env) == "strict"

    def test_default_is_off(self):
        assert resolve_invariant_mode(None, environ={}) == "off"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="invariants mode"):
            resolve_invariant_mode("loud", environ={})
        with pytest.raises(ValueError):
            InvariantChecker(mode="off")  # off means "don't build one"

    def test_modes_are_closed_set(self):
        assert INVARIANT_MODES == ("strict", "warn", "off")

    def test_env_variable_reaches_run_simulation(self, monkeypatch):
        monkeypatch.setenv("REPRO_INVARIANTS", "warn")
        result = run_simulation(
            INFINITE, algorithm="blocking",
            run=RunConfig(batches=1, batch_time=2.0, warmup_batches=0,
                          seed=7),
        )
        assert result.diagnostics["invariants"]["mode"] == "warn"

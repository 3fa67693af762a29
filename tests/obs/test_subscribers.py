"""Tests for the built-in bus subscribers."""

import pytest

from repro.core import SimulationParameters, SystemModel
from repro.core.history import CommittedRecord
from repro.core.transaction import Transaction
from repro.des import Environment
from repro.obs import FaultAccountingSubscriber, InstrumentationBus, scalar_fields


def small_params(**overrides):
    defaults = dict(
        db_size=60, min_size=2, max_size=6, write_prob=0.5,
        num_terms=10, mpl=8, ext_think_time=0.2,
        obj_io=0.01, obj_cpu=0.005, num_cpus=None, num_disks=None,
    )
    defaults.update(overrides)
    return SimulationParameters(**defaults)


class TestScalarFields:
    def test_transactions_collapse_to_ids(self):
        tx = Transaction(7, 0, read_set=(1, 2), write_set=(2,))
        flat = scalar_fields("cc_grant", {"tx": tx, "obj": 2, "op": "read"})
        assert flat == {"tx": 7, "obj": 2, "op": "read"}

    def test_plain_fields_pass_through_unchanged(self):
        assert scalar_fields("custom", {"a": 1.5, "b": None}) == {
            "a": 1.5, "b": None,
        }

    def test_lifecycle_lines_carry_the_attempt(self):
        tx = Transaction(7, 3, read_set=(1, 2), write_set=(2,))
        assert scalar_fields("restart", {"tx": tx, "reason": "deadlock"}) == {
            "tx": 7, "attempt": 0, "reason": "deadlock",
        }
        assert scalar_fields("submit", {"tx": tx}) == {
            "tx": 7, "attempt": 0, "terminal": 3, "reads": 2, "writes": 1,
        }

    def test_non_transaction_tx_passes_through(self):
        assert scalar_fields("commit", {"tx": 1}) == {"tx": 1}

    def test_commit_point_lines_carry_the_installed_writes(self):
        tx = Transaction(7, 3, read_set=(1, 2, 4), write_set=(2, 4))
        tx.begin_attempt(1.0, cc_timestamp=1)
        tx.install_write_set = frozenset({4})
        assert scalar_fields("commit_point", {"tx": tx}) == {
            "tx": 7, "attempt": 1, "writes": 1,
        }

    def test_commit_lines_carry_the_response_time(self):
        tx = Transaction(7, 3, read_set=(1, 2), write_set=(2,))
        tx.first_submit_time = 1.5
        tx.begin_attempt(1.5, cc_timestamp=1)
        tx.begin_attempt(2.0, cc_timestamp=2)
        tx.commit_time = 4.0
        assert scalar_fields("commit", {"tx": tx}) == {
            "tx": 7, "attempt": 2, "response": 2.5,
        }


class TestMetricsSubscriber:
    """The engine attaches this by default; its output *is* the
    MetricsCollector the rest of the system reads, so the strongest
    check is cross-consistency on a real run."""

    @pytest.fixture(scope="class")
    def model(self):
        model = SystemModel(small_params(), "blocking", seed=9)
        model.run_until(20.0)
        return model

    def test_levels_reflect_admission_state(self, model):
        assert model.metrics.active_level.value == model.active_count
        assert model.metrics.ready_queue_level.value == len(
            model.ready_queue
        )

    def test_counters_are_populated(self, model):
        assert model.metrics.commits.total > 0
        assert model.metrics.blocks.total > 0


class TestHistorySubscriber:
    def test_committed_history_records_commit_points(self):
        model = SystemModel(small_params(), "blocking", seed=9,
                            record_history=True)
        model.run_until(15.0)
        history = model.committed_history
        assert history
        assert all(isinstance(r, CommittedRecord) for r in history)
        # Commit points are recorded in commit order.
        times = [r.commit_time for r in history]
        assert times == sorted(times)
        assert len(history) >= model.metrics.commits.total

    def test_without_record_history_property_is_none(self):
        model = SystemModel(small_params(), "blocking", seed=9)
        assert model.committed_history is None


class TestFaultAccountingSubscriber:
    def test_accumulates_from_events(self):
        bus = InstrumentationBus(Environment())
        accounting = bus.attach(FaultAccountingSubscriber())
        bus.emit("disk_fail", disk=0)
        assert accounting.disk_failures == 1
        assert accounting.disks_down == 1
        bus.emit("disk_repair", disk=0, downtime=2.5)
        assert accounting.disks_down == 0
        assert accounting.disk_downtime == pytest.approx(2.5)
        bus.emit("cpu_degrade", factor=2.0)
        bus.emit("cpu_restore", duration=1.5)
        assert accounting.cpu_degradations == 1
        assert accounting.cpu_degraded_time == pytest.approx(1.5)
        bus.emit("access_fault", tx=3, attempt=1)
        assert accounting.access_faults == 1

    def test_ignores_non_fault_kinds(self):
        bus = InstrumentationBus(Environment())
        accounting = bus.attach(FaultAccountingSubscriber())
        bus.emit("commit", tx=1)
        bus.emit("submit", tx=2)
        assert accounting.disk_failures == 0
        assert accounting.access_faults == 0

"""Tests for the subscriber layer, and for the counters kept beside it.

Reported counters are kept by the objects that own them, so a run
yields them with no subscriber attached.
"""

import pytest

from repro.core import SimulationParameters, SystemModel
from repro.core.transaction import Transaction
from repro.faults import (
    AccessFaultSpec,
    CpuDegradationSpec,
    DiskFaultSpec,
    FaultSpec,
)
from repro.obs import Subscriber, scalar_fields


def small_params(**overrides):
    defaults = dict(
        db_size=60, min_size=2, max_size=6, write_prob=0.5,
        num_terms=10, mpl=8, ext_think_time=0.2,
        obj_io=0.01, obj_cpu=0.005, num_cpus=None, num_disks=None,
    )
    defaults.update(overrides)
    return SimulationParameters(**defaults)


def faulted_params():
    """Finite resources with disk, CPU and access faults."""
    return small_params(
        num_cpus=1, num_disks=2,
        faults=FaultSpec(
            disk=DiskFaultSpec(mttf=4.0, mttr=1.0),
            cpu=CpuDegradationSpec(
                mean_interval=3.0, mean_duration=1.0, factor=2.0,
            ),
            access=AccessFaultSpec(prob=0.02),
        ),
    )


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


class TestEngineMetrics:
    """The engine keeps its MetricsCollector itself; no subscriber is
    attached, so the strongest check is cross-consistency on a real
    run."""

    @pytest.fixture(scope="class")
    def model(self):
        model = SystemModel(small_params(), "blocking", seed=9)
        model.run_until(20.0)
        return model

    def test_a_bare_model_attaches_no_subscriber(self, model):
        assert model.bus.subscribers == []

    def test_levels_reflect_admission_state(self, model):
        assert model.metrics.active_level.value == model.active_count
        assert model.metrics.ready_queue_level.value == len(
            model.ready_queue
        )

    def test_counters_are_populated(self, model):
        assert model.metrics.commits.total > 0
        assert model.metrics.blocks.total > 0

    def test_observers_see_the_metrics_already_updated(self):
        # The engine records each lifecycle event just before it emits
        # it, so an observer's view includes the event it is handed.
        probe = MetricsProbe()
        model = SystemModel(small_params(), "blocking", seed=9,
                            subscribers=(probe,))
        model.run_until(20.0)
        assert probe.mismatches == []
        assert {"submit", "admit", "block", "restart", "commit"} <= set(
            probe.seen
        )


class MetricsProbe(Subscriber):
    """Checks the model's metrics against the lifecycle events so far."""

    kinds = ("submit", "resubmit", "admit", "block", "restart", "commit")

    def __init__(self):
        self.seen = dict.fromkeys(self.kinds, 0)
        self.mismatches = []

    def on_attach(self, bus, model):
        self.metrics = model.metrics

    def on_event(self, time, kind, fields):
        seen = self.seen
        seen[kind] += 1
        metrics = self.metrics
        view = (
            metrics.submissions.total, metrics.blocks.total,
            metrics.restarts.total, metrics.commits.total,
            metrics.ready_queue_level.value, metrics.active_level.value,
        )
        expected = (
            seen["submit"], seen["block"], seen["restart"], seen["commit"],
            seen["submit"] + seen["resubmit"] - seen["admit"],
            seen["admit"] - seen["restart"] - seen["commit"],
        )
        if view != expected:
            self.mismatches.append((time, kind, view, expected))


class Recorder(Subscriber):
    """Records the kind of every event."""

    def __init__(self):
        self.seen = []

    def on_event(self, time, kind, fields):
        self.seen.append(kind)


class TestFaultCounters:
    """The fault injector keeps its own counts, with or without
    observers."""

    def run(self, subscribers=()):
        model = SystemModel(faulted_params(), "blocking", seed=9,
                            subscribers=subscribers)
        model.run_until(20.0)
        return model.fault_injector

    def test_accumulates_without_a_subscriber(self):
        injector = self.run()
        assert injector.bus.subscribers == []
        assert injector.disk_failures > 0
        assert injector.disk_downtime > 0.0
        assert injector.cpu_degradations > 0
        assert injector.cpu_degraded_time > 0.0
        assert injector.access_faults > 0
        summary = injector.summary()
        assert summary["disk_failures"] == injector.disk_failures
        assert summary["access_faults"] == injector.access_faults

    def test_observers_leave_the_counts_alone(self):
        recorder = Recorder()
        observed = self.run(subscribers=(recorder,))
        assert "disk_repair" in recorder.seen
        assert observed.summary() == self.run().summary()

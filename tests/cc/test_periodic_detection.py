"""Tests for periodic (scan-based) deadlock detection in BlockingCC."""

import pytest

from repro.cc import RestartTransaction
from repro.cc.blocking import (
    DETECT_ON_BLOCK,
    DETECT_PERIODIC,
    BlockingCC,
)
from repro.core import SimulationParameters, SystemModel
from repro.des import Environment


class TestConstruction:
    def test_defaults_to_on_block(self):
        assert BlockingCC().detection_mode == DETECT_ON_BLOCK

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            BlockingCC(detection_mode="sometimes")

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            BlockingCC(detection_mode=DETECT_PERIODIC,
                       detection_interval=0.0)


class TestPeriodicScan:
    def test_deadlock_broken_at_next_scan(self, make_tx):
        env = Environment()
        cc = BlockingCC(
            detection_mode=DETECT_PERIODIC, detection_interval=1.0
        ).attach(env)
        old = make_tx(first_submit_time=1.0)
        young = make_tx(first_submit_time=9.0)
        cc.write_request(old, 1)
        cc.write_request(young, 2)
        w1 = cc.write_request(old, 2)
        w2 = cc.write_request(young, 1)  # deadlock; NOT detected yet
        assert w1 is not None and w2 is not None
        assert not w1.triggered and not w2.triggered
        assert cc.deadlocks_found == 0
        young.lock_wait_event = w2
        old.lock_wait_event = w1
        outcomes = {}

        def waiter(env, tag, event):
            try:
                yield event
                outcomes[tag] = "granted"
            except RestartTransaction:
                outcomes[tag] = "victimized"
                cc.abort(young if tag == "young" else old)

        env.process(waiter(env, "old", w1))
        env.process(waiter(env, "young", w2))
        env.run(until=1.5)  # the scan at t=1.0 breaks the cycle
        assert cc.deadlocks_found == 1
        assert outcomes["young"] == "victimized"
        assert outcomes["old"] == "granted"

    def test_no_cycle_no_victims(self, make_tx):
        env = Environment()
        cc = BlockingCC(
            detection_mode=DETECT_PERIODIC, detection_interval=0.5
        ).attach(env)
        holder = make_tx()
        waiter = make_tx()
        cc.write_request(holder, 1)
        event = cc.write_request(waiter, 1)
        waiter.lock_wait_event = event
        env.run(until=3.0)
        assert cc.deadlocks_found == 0
        assert not event.triggered


class TestInModel:
    def hot_params(self):
        return SimulationParameters(
            db_size=30, min_size=2, max_size=6, write_prob=0.6,
            num_terms=15, mpl=12, ext_think_time=0.1,
            obj_io=0.01, obj_cpu=0.005, num_cpus=None, num_disks=None,
        )

    def test_periodic_detection_keeps_system_live_but_slower(self):
        cc = BlockingCC(
            detection_mode=DETECT_PERIODIC, detection_interval=0.5
        )
        model = SystemModel(self.hot_params(), cc, seed=3)
        model.run_until(40.0)
        assert model.metrics.commits.total > 20  # live, no stall
        assert cc.deadlocks_found > 0
        # On-block detection dominates at this contention level:
        # deadlocked transactions hold the mpl hostage between scans.
        on_block = SystemModel(self.hot_params(), "blocking", seed=3)
        on_block.run_until(40.0)
        assert on_block.metrics.commits.total > (
            3 * model.metrics.commits.total
        )

    def test_histories_stay_serializable(self):
        from repro.obs import InvariantChecker

        cc = BlockingCC(
            detection_mode=DETECT_PERIODIC, detection_interval=0.5
        )
        checker = InvariantChecker(mode="strict")
        model = SystemModel(
            self.hot_params(), cc, seed=4, subscribers=(checker,)
        )
        model.run_until(40.0)
        report = checker.report()
        assert report["violations"] == []
        assert report["serializability"]["reads"] > 0

    def test_slower_scans_lose_throughput(self):
        # Deadlocked transactions sit blocked until the next scan, so a
        # sluggish detector costs throughput at high contention.
        def run(interval):
            cc = BlockingCC(
                detection_mode=DETECT_PERIODIC,
                detection_interval=interval,
            )
            model = SystemModel(self.hot_params(), cc, seed=5)
            model.run_until(60.0)
            return model.metrics.commits.total

        fast, slow = run(0.1), run(5.0)
        assert fast > 1.3 * slow
"""A finished trajectory frees itself.

Every driver closes its model once the results are read, so a model
is freed by reference counting, not by the cyclic collector: with the
collector disabled, a closed and dropped model leaves no cyclic
garbage and no live model behind. Closing detaches the observers
before any generator is closed, so they see nothing after the run's
last batch boundary.
"""

import gc
import weakref

import pytest

from repro.cc import algorithm_names
from repro.core import (
    RunConfig,
    SimulationParameters,
    run_simulation,
    run_until_precision,
)
from repro.core.engine import SystemModel
from repro.core.simulation import run_point_replications
from repro.experiments import ExperimentConfig, run_sweep
from repro.faults import (
    AccessFaultSpec,
    CpuDegradationSpec,
    DiskFaultSpec,
    FaultSpec,
)
from repro.obs import InvariantChecker, JsonlSink, TimeSeriesSampler
from repro.obs.subscribers import Subscriber

RUN = RunConfig(batches=2, batch_time=4.0, warmup_batches=1, seed=3)

#: Resource tiers, each with the paper's closed terminals and with
#: open Poisson arrivals.
TIERS = {
    "classic": {},
    "infinite": dict(num_cpus=None, num_disks=None),
    "buffered": dict(resource_model="buffered"),
    "skewed_disks": dict(resource_model="skewed_disks"),
    "distributed": dict(
        resource_model="distributed", nodes=4, replication_factor=2,
        commit_protocol="2pc", num_disks=4,
    ),
}
WORKLOADS = {
    "closed_classic": {},
    "open_poisson": dict(workload_model="open_poisson", arrival_rate=6.0),
}


def params(**overrides):
    """A small, conflict-heavy model: deadlocks, wounds and restarts
    happen within a few simulated seconds."""
    base = dict(
        db_size=60, min_size=4, max_size=8, write_prob=0.5,
        num_terms=12, mpl=8, ext_think_time=0.3,
        obj_io=0.010, obj_cpu=0.005, num_cpus=1, num_disks=2,
    )
    base.update(overrides)
    return SimulationParameters(**base)


@pytest.fixture
def models(monkeypatch):
    """Weak references to every model built, the collector disabled."""
    refs = []
    init = SystemModel.__init__

    def recording_init(model, *args, **kwargs):
        init(model, *args, **kwargs)
        refs.append(weakref.ref(model))

    monkeypatch.setattr(SystemModel, "__init__", recording_init)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


def assert_freed(refs):
    """Every recorded model is gone, and nothing was left to collect.

    The assertion compares counts, so a failure's report holds no
    model alive.
    """
    assert refs, "no model was built"
    alive = sum(ref() is not None for ref in refs)
    assert (alive, gc.collect()) == (0, 0)


class Recorder(Subscriber):
    """Records every event of every kind."""

    def __init__(self):
        self.events = []

    def on_event(self, time, kind, fields):
        self.events.append((time, kind))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("algorithm", algorithm_names())
def test_closed_models_leave_no_cyclic_garbage(models, algorithm, tier,
                                               workload):
    results = run_point_replications(
        params(**TIERS[tier], **WORKLOADS[workload]), algorithm, RUN, 2,
    )
    assert len(results) == 2
    assert_freed(models)


def test_the_matrix_restarts_under_every_restart_path():
    # The restart path is where exception/traceback cycles come from,
    # so the matrix's configuration must exercise it.
    for algorithm in ("blocking", "wound_wait", "wait_die", "optimistic",
                      "immediate_restart", "basic_to", "mvto"):
        result = run_simulation(params(), algorithm, RUN)
        assert result.totals["restarts"] > 0, algorithm
    reasons = run_simulation(params(), "blocking", RUN).totals[
        "restart_reasons"
    ]
    assert reasons.get("deadlock", 0) > 0


class TestEveryExecutorPath:
    def test_run_simulation(self, models):
        result = run_simulation(params(), "wound_wait", RUN)
        assert result.totals["commits"] > 0
        assert_freed(models)

    def test_observed_run_simulation(self, models, tmp_path):
        sink = JsonlSink(str(tmp_path / "trace.jsonl"))
        result = run_simulation(
            params(), "blocking", RUN, invariants="warn",
            subscribers=(sink, TimeSeriesSampler(interval=1.0)),
        )
        sink.close()
        assert result.diagnostics["invariants"]["violations"] == []
        assert_freed(models)

    def test_fault_injection(self, models):
        faults = FaultSpec(
            disk=DiskFaultSpec(mttf=3.0, mttr=0.5),
            cpu=CpuDegradationSpec(
                mean_interval=2.0, mean_duration=1.0, factor=2.0,
            ),
            access=AccessFaultSpec(prob=0.05),
        )
        result = run_simulation(params(faults=faults), "blocking", RUN)
        assert result.totals["faults"]["disk_failures"] > 0
        assert_freed(models)

    def test_run_point_replications(self, models):
        results = run_point_replications(params(), "blocking", RUN, 3)
        assert [r.run.warmup_batches for r in results] == [1, 3, 5]
        assert_freed(models)

    def test_a_raising_batch_callback(self, models):
        class Abort(Exception):
            pass

        def abort_at_the_second_boundary(model):
            if model.env.now > RUN.batch_time:
                raise Abort(model.env.now)

        with pytest.raises(Abort):
            run_point_replications(
                params(), "blocking", RUN, 2,
                batch_callback=abort_at_the_second_boundary,
            )
        assert_freed(models)

    def test_run_until_precision(self, models):
        result = run_until_precision(
            params(), "wound_wait", RUN, max_batches=4,
        )
        assert result.run.batches <= 4
        assert_freed(models)

    def test_run_sweep(self, models):
        config = ExperimentConfig(
            experiment_id="lifetime", title="lifetime", params=params(),
            algorithms=("blocking", "optimistic"), mpls=(2, 8),
        )
        sweep = run_sweep(config, run=RUN, workers=1, replications=2)
        assert sweep.complete and len(sweep.replicates) == 4
        assert len(models) == 4
        assert_freed(models)


class TestClose:
    def test_close_is_idempotent_and_a_closed_model_refuses_to_run(self):
        model = SystemModel(params(), "blocking", seed=1)
        model.run_until(5.0)
        model.close()
        model.close()
        with pytest.raises(
                RuntimeError,
                match=r"<SystemModel cc=blocking mpl=8 t=5\.000> is closed"):
            model.run_until(6.0)

    def test_counters_read_as_an_open_twin_reads_them(self):
        # perfbench reads these off finished models; an event count is
        # the event-id sequence less the entries still queued.
        def counters(model):
            env = model.env
            return (
                env.now, env._eid() - len(env._queue),
                model.metrics.commits.total, model.workload.generated,
                model.physical.disk_tracker.busy_area(),
                model.physical.cpu_tracker.busy_area(),
            )

        twin = SystemModel(params(), "wound_wait", seed=1)
        twin.run_until(5.0)
        with SystemModel(params(), "wound_wait", seed=1) as model:
            model.run_until(5.0)
        assert model.env._processes == {}
        assert counters(model) == counters(twin)
        with pytest.raises(RuntimeError, match="is closed"):
            model.run_until(6.0)

    def test_closing_mid_repair_leaves_the_fault_counts_alone(self):
        # Closing runs the in-flight repair's ``finally``, which ends
        # the repair's service; its downtime was never completed, so
        # the counts must read as the open twin's.
        def counters(model):
            metrics = model.metrics
            return (
                model.fault_injector.summary(),
                metrics.blocks.total, metrics.restarts.total,
                metrics.submissions.total,
                metrics.active_level.area(),
                metrics.ready_queue_level.area(),
            )

        faulted = params(faults=FaultSpec(
            disk=DiskFaultSpec(mttf=3.0, mttr=0.5),
            cpu=CpuDegradationSpec(
                mean_interval=2.0, mean_duration=1.0, factor=2.0,
            ),
            access=AccessFaultSpec(prob=0.05),
        ))
        recorder = Recorder()
        twin = SystemModel(faulted, "wound_wait", seed=1,
                           subscribers=(recorder,))
        twin.run_until(4.0)
        kinds = [kind for _, kind in recorder.events]
        assert kinds.count("disk_fail") == kinds.count("disk_repair") + 1
        with SystemModel(faulted, "wound_wait", seed=1) as model:
            model.run_until(4.0)
        summary = model.fault_injector.summary()
        assert summary["cpu_degradations"] and summary["access_faults"]
        assert counters(model) == counters(twin)


class TestObserversGoSilent:
    def test_no_event_after_the_last_batch_boundary(self):
        recorder = Recorder()
        seen = []
        run_point_replications(
            params(), "blocking", RUN, 2, subscribers=(recorder,),
            boundary_diagnostics=lambda: seen.append(len(recorder.events)),
        )
        # Transactions held CPUs and disks at the cut, so closing their
        # generators released resources: observers heard none of it.
        assert any(kind == "resource_busy" for _, kind in recorder.events)
        assert len(seen) == 2
        assert len(recorder.events) == seen[-1]

    def test_the_checker_report_is_the_one_read_at_the_boundary(self):
        checker = InvariantChecker(mode="warn")
        result = run_simulation(
            params(), "blocking", RUN, invariants="warn",
            subscribers=(checker,),
        )
        assert checker.report() == result.diagnostics["invariants"]

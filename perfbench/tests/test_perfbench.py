"""Tests of the benchmark's own logic (the simulator has its own suite)."""

import json
import re
import shutil
import subprocess
import sys
import time
from array import array
from pathlib import Path

from perfbench import metrics
from perfbench.run import Laps, Ledger, reference_cost, result_line
from perfbench.tracing import CC, DES, LAYERS, OBS, RESOURCES, Tracer, self_times_ns
from perfbench.workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    ContentionInfinite,
    PassOutcome,
    classic_executed_sim_seconds,
    delivered_sim_seconds,
)
from repro.core import RunConfig, SimulationParameters
from repro.experiments import runner
from repro.experiments.configs import ExperimentConfig
from repro.obs import InstrumentationBus

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SMALL = SimulationParameters(
    db_size=200, min_size=4, max_size=8, write_prob=0.25, num_terms=10,
    mpl=5, ext_think_time=0.5, obj_io=0.010, obj_cpu=0.005,
    num_cpus=1, num_disks=2,
)


class SmallModels(ContentionInfinite):
    """The direct-model workload shape on a model small enough for tests."""

    SIM_SECONDS = 10.0
    SEGMENTS = 2

    def params(self):
        return SMALL


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class TestMetricNames:
    def test_names_and_units_are_valid_and_unique(self):
        declared = metrics.END_TO_END + metrics.PER_LAYER
        names = [name for name, *_ in declared]
        assert len(names) == len(set(names))
        for name, unit, better, *_ in declared:
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
            assert better in ("lower", "higher")

    def test_benchmark_json_declares_the_same_metrics_and_workloads(self):
        spec = benchmark_json()
        assert [
            (m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]
        ] == [entry[:4] for entry in metrics.END_TO_END]
        assert [
            (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
        ] == list(metrics.PER_LAYER)
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    def test_bounds_are_within_the_contract_and_setup_has_the_largest(self):
        bounds = {name: bound for name, _, _, bound, _ in metrics.END_TO_END}
        assert all(0.0 < bound <= 0.25 for bound in bounds.values())
        assert bounds["setup_s"] == max(bounds.values())

    def test_traced_pass_reports_every_per_layer_metric(self):
        workload = SmallModels()
        inputs = workload.build(3)
        tracer = Tracer()
        with tracer.active():
            started = time.perf_counter()
            results = workload.run(inputs)
            wall = time.perf_counter() - started
        outcome = workload.outcome(inputs, results)
        reported = metrics.layer_metrics(
            tracer, tracer.self_seconds(wall), wall, outcome
        )
        reported["trace.overhead_pct"] = 0.0
        assert list(reported) == [name for name, *_ in metrics.PER_LAYER]

    def test_result_line_has_exactly_the_contract_keys(self):
        ledger = Ledger(reference={"a": "1"})
        ledger.record(PassOutcome(digests={"a": "1"}), operations=1)
        line = json.loads(result_line(ledger, {"setup_s": 0.5}))
        assert line == {
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {"setup_s": {"value": 0.5, "unit": "s"}},
        }


class TestReferenceCost:
    @staticmethod
    def laps(pieces, references):
        laps = Laps()
        laps.pieces, laps.references = pieces, references
        return laps

    def test_a_uniformly_slower_host_costs_the_same(self):
        fast = self.laps([0.2, 0.4], [0.01, 0.01, 0.01])
        slow = self.laps([0.4, 0.8], [0.02, 0.02, 0.02])
        assert reference_cost([fast, slow, fast]) == 20.0 + 40.0

    def test_each_piece_takes_the_median_of_its_passes(self):
        passes = [
            self.laps([0.1, 0.2], [0.01, 0.01, 0.01]),
            self.laps([0.3, 0.2], [0.01, 0.03, 0.01]),
            self.laps([0.2, 0.5], [0.01, 0.01, 0.01]),
        ]
        # Piece 0: ratios 10, 15, 20; piece 1: 20, 10, 50.
        assert abs(reference_cost(passes) - (15.0 + 20.0)) < 1e-9


class TestSelfTime:
    def test_nested_spans_subtract_only_their_direct_children(self):
        # 0: layer 0 [0, 100]
        #   1: layer 1 [10, 40]
        #     2: layer 0 [20, 30]
        #   3: layer 2 [50, 60]
        layers = array("B", [0, 1, 0, 2])
        starts = array("q", [0, 10, 20, 50])
        ends = array("q", [100, 40, 30, 60])
        parents = array("q", [-1, 0, 1, 0])
        own = self_times_ns(layers, starts, ends, parents, 3)
        assert own == [60 + 10, 30 - 10, 10]
        assert sum(own) == 100

    def test_traced_pass_is_bit_identical_and_layers_cover_its_wall(self):
        workload = SmallModels()
        inputs = workload.build(3)
        plain = workload.outcome(inputs, workload.run(inputs))
        emit = InstrumentationBus.__dict__["emit"]
        tracer = Tracer()
        with tracer.active():
            started = time.perf_counter()
            results = workload.run(inputs)
            wall = time.perf_counter() - started
        assert InstrumentationBus.__dict__["emit"] is emit
        assert workload.outcome(inputs, results).digests == plain.digests
        own = tracer.self_seconds(wall)
        assert len(own) == len(LAYERS)
        assert all(seconds >= 0.0 for seconds in own)
        assert abs(sum(own) - wall) < 1e-9
        calls = tracer.layer_calls()
        assert calls[CC] and calls[RESOURCES] and calls[OBS]
        assert calls[DES] == 0  # driven directly, no run_simulation
        assert len(tracer.models) == len(workload.ALGORITHMS)

    def test_reset_forgets_the_last_pass(self):
        workload = SmallModels()
        inputs = workload.build(3)
        tracer = Tracer()
        with tracer.active():
            workload.run(inputs)
        tracer.reset()
        assert len(tracer.layer) == 0 and not tracer.models
        assert sum(tracer.calls) == 0


class TestSimulatedSeconds:
    def test_formulas_for_a_small_replication_count(self):
        run = RunConfig(batches=2, batch_time=3.0, warmup_batches=1)
        # One trajectory of 1 + 3*2 batches per point ...
        assert delivered_sim_seconds(run, 3, points=2) == 2 * 7 * 3.0
        # ... versus 1+2, 1+4 and 1+6 batches re-simulated per point.
        assert classic_executed_sim_seconds(run, 3, points=2) == 2 * 15 * 3.0
        assert classic_executed_sim_seconds(run, 1, 2) == (
            delivered_sim_seconds(run, 1, 2)
        )

    def test_a_traced_sweep_counts_the_seconds_it_executed(self):
        config = ExperimentConfig(
            experiment_id="perfbench_small", title="small", figures=(),
            params=SMALL, algorithms=("blocking",), mpls=(5,),
        )
        run = RunConfig(batches=1, batch_time=2.0, warmup_batches=1, seed=4)
        tracer = Tracer()
        with tracer.active():
            runner.run_sweep(config, run=run, replications=3,
                             invariants="off")
        executed = metrics.model_counters(tracer.models)["sim_s"]
        delivered = delivered_sim_seconds(run, 3, 1)
        # Either lane is acceptable: the classic one re-simulates
        # prefixes, a fused one runs each trajectory once.
        assert executed in (classic_executed_sim_seconds(run, 3, 1), delivered)
        assert executed >= delivered == 8.0


class TestDigests:
    def test_one_seed_repeats_and_another_differs(self):
        workload = SmallModels()
        first = workload.build(5)
        a = workload.outcome(first, workload.run(first))
        b = workload.outcome(first, workload.run(first))
        other = workload.build(6)
        c = workload.outcome(other, workload.run(other))
        assert a.digests == b.digests
        assert len(a.digests) == len(workload.ALGORITHMS)
        assert a.digests != c.digests

    def test_strict_invariants_leave_the_digests_unchanged(self):
        workload = SmallModels()
        inputs = workload.build(5)
        plain = workload.outcome(inputs, workload.run(inputs))
        strict = workload.outcome(
            inputs, workload.run(inputs, strict=True), strict=True
        )
        assert strict.digests == plain.digests

    def test_a_changed_digest_is_a_failed_operation(self):
        ledger = Ledger(reference={"a": "1", "b": "2"})
        ledger.record(PassOutcome(digests={"a": "1", "b": "x"}), 2)
        ledger.record(PassOutcome(digests={"a": "1", "b": "2"}), 2)
        assert (ledger.attempted, ledger.failed) == (4, 1)

    def test_without_a_pin_the_first_pass_is_the_reference(self):
        ledger = Ledger()
        ledger.record(PassOutcome(digests={"a": "1"}), 1)
        ledger.record(PassOutcome(digests={"a": "2"}), 1)
        ledger.record(
            PassOutcome(digests={"a": "1"}, errors=[("a", "boom")]), 1
        )
        assert (ledger.attempted, ledger.failed) == (3, 2)

    def test_golden_file_pins_every_operation_of_every_workload(self):
        golden = json.loads(
            (ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8")
        )
        assert set(golden) == set(WORKLOADS)
        for name, workload in WORKLOADS.items():
            inputs = workload.build(DEFAULT_SEED)
            assert len(golden[name]) == workload.operations(inputs), name


def test_without_the_package_sources_the_command_fails_without_a_result(
        tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout

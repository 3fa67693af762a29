"""Tests for the CI benchmark regression gate."""

import importlib.util
import json
import os

spec = importlib.util.spec_from_file_location(
    "check_bench_regression",
    os.path.join(
        os.path.dirname(__file__), os.pardir,
        "benchmarks", "check_bench_regression.py",
    ),
)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)

#: The engine-lane gated benchmark, used wherever any gate will do.
ENGINE_GATE = "test_full_model_bus_fast_path"


def bench_json(path, means):
    payload = {
        "benchmarks": [
            {"name": name, "stats": {"mean": mean}}
            for name, mean in means.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return str(path)


class TestCompare:
    def test_within_threshold_passes(self):
        failures, _ = gate.compare(
            {ENGINE_GATE: 0.105},
            {ENGINE_GATE: 0.100},
            threshold=0.10,
        )
        assert failures == []

    def test_gated_regression_fails(self):
        failures, lines = gate.compare(
            {ENGINE_GATE: 0.150},
            {ENGINE_GATE: 0.100},
            threshold=0.10,
        )
        assert failures == [ENGINE_GATE]
        assert any("FAIL" in line for line in lines)

    def test_every_present_gated_benchmark_is_enforced(self):
        # The sweep benchmarks gate exactly like the engine one; a run
        # can regress on any of them independently.
        failures, _ = gate.compare(
            {
                "test_sweep_batched_lane_r4": 0.200,
                "test_sweep_batched_lane_r12": 0.100,
            },
            {
                "test_sweep_batched_lane_r4": 0.100,
                "test_sweep_batched_lane_r12": 0.100,
            },
            threshold=0.10,
        )
        assert failures == ["test_sweep_batched_lane_r4"]

    def test_ungated_regression_only_warns(self):
        failures, _ = gate.compare(
            {ENGINE_GATE: 0.100, "test_event_loop": 9.0},
            {ENGINE_GATE: 0.100, "test_event_loop": 1.0},
            threshold=0.10,
        )
        assert failures == []

    def test_classic_lane_is_not_gated(self):
        # BENCH_sweep.json still lists the retired classic-lane runs;
        # they are not gates, so their numbers can never fail a build.
        failures, _ = gate.compare(
            {"test_sweep_classic_lane_r4": 9.0},
            {"test_sweep_classic_lane_r4": 1.0},
            threshold=0.10,
        )
        assert failures == []

    def test_speedup_never_fails(self):
        failures, _ = gate.compare(
            {ENGINE_GATE: 0.050},
            {ENGINE_GATE: 0.100},
            threshold=0.10,
        )
        assert failures == []

    def test_one_sided_benchmarks_are_reported_not_failed(self):
        failures, lines = gate.compare(
            {ENGINE_GATE: 0.1, "new_bench": 1.0},
            {ENGINE_GATE: 0.1, "old_bench": 1.0},
        )
        assert failures == []
        assert any("new benchmark" in line for line in lines)
        assert any("missing from current" in line for line in lines)


class TestMain:
    def test_pass_exit_zero(self, tmp_path, capsys):
        current = bench_json(tmp_path / "cur.json", {ENGINE_GATE: 0.10})
        baseline = bench_json(tmp_path / "base.json", {ENGINE_GATE: 0.10})
        assert gate.main([current, "--baseline", baseline]) == 0
        assert "bench-gate: OK" in capsys.readouterr().out

    def test_regression_exit_one(self, tmp_path, capsys):
        current = bench_json(tmp_path / "cur.json", {ENGINE_GATE: 0.20})
        baseline = bench_json(tmp_path / "base.json", {ENGINE_GATE: 0.10})
        assert gate.main([current, "--baseline", baseline]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_sweep_lane_run_gates_only_single_process_runs(
        self, tmp_path, capsys
    ):
        # The multi-worker sweep is reported, never gated: its wall
        # time depends on the runner's core count.
        baseline = bench_json(tmp_path / "base.json", {
            "test_sweep_batched_lane_r4": 1.5,
            "test_sweep_workers2_r12": 0.5,
        })
        current = bench_json(tmp_path / "cur.json", {
            "test_sweep_batched_lane_r4": 1.5,
            "test_sweep_workers2_r12": 5.0,
        })
        assert gate.main([current, "--baseline", baseline]) == 0
        assert "test_sweep_workers2_r12" in capsys.readouterr().out
        regressed = bench_json(tmp_path / "slow.json", {
            "test_sweep_batched_lane_r4": 3.0,
        })
        assert gate.main([regressed, "--baseline", baseline]) == 1

    def test_missing_file_exit_two(self, tmp_path):
        baseline = bench_json(tmp_path / "base.json", {ENGINE_GATE: 0.10})
        assert gate.main(
            [str(tmp_path / "nope.json"), "--baseline", baseline]
        ) == 2

    def test_missing_gated_benchmark_exit_two(self, tmp_path):
        current = bench_json(tmp_path / "cur.json", {"other": 1.0})
        baseline = bench_json(tmp_path / "base.json", {ENGINE_GATE: 0.10})
        assert gate.main([current, "--baseline", baseline]) == 2

    def test_custom_threshold(self, tmp_path):
        current = bench_json(tmp_path / "cur.json", {ENGINE_GATE: 0.115})
        baseline = bench_json(tmp_path / "base.json", {ENGINE_GATE: 0.10})
        assert gate.main([current, "--baseline", baseline]) == 1
        assert gate.main(
            [current, "--baseline", baseline, "--threshold", "0.20"]
        ) == 0

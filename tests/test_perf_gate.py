"""Tests for the CI performance gate's decision rule."""

import importlib.util
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

spec = importlib.util.spec_from_file_location(
    "perf_gate", os.path.join(ROOT, ".github", "perf_gate.py"),
)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)

#: Canned end-to-end declarations, shaped like BENCHMARK.json's.
END_TO_END = [
    {"name": "pass_cost_ref", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]

#: Every declared metric at 1.0: the default of a canned run.
METRICS = {metric["name"]: 1.0 for metric in END_TO_END}


def result(correct=True, attempted=10, failed=0, **values):
    """One canned perfbench result line, as the gate reads it."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": "x"}
            for name, value in {**METRICS, **values}.items()
        },
    }


def decide(parent, change, end_to_end=END_TO_END):
    return gate.judge(end_to_end, parent, change)[1]


class TestJudge:
    def test_identical_sides_pass(self):
        runs = [result() for _ in range(gate.PAIRS)]
        rows, failures = gate.judge(END_TO_END, runs, runs)
        assert failures == []
        assert [row[0] for row in rows] == list(METRICS)
        assert all(row[-1] == "ok" for row in rows)

    def test_change_within_its_bound_passes(self):
        parent = [result(pass_cost_ref=100.0) for _ in range(3)]
        change = [result(pass_cost_ref=124.0) for _ in range(3)]
        assert decide(parent, change) == []

    def test_change_beyond_its_bound_fails(self):
        parent = [result(pass_cost_ref=100.0) for _ in range(3)]
        change = [result(pass_cost_ref=126.0) for _ in range(3)]
        failures = decide(parent, change)
        assert len(failures) == 1
        assert failures[0].startswith("pass_cost_ref: +26.0% worse")

    def test_bound_is_per_metric(self):
        # peak_rss_mb's bound is 0.1: +12% fails it, +12% of
        # pass_cost_ref (bound 0.25) does not.
        parent = [result(peak_rss_mb=30.0, pass_cost_ref=100.0)]
        change = [result(peak_rss_mb=33.6, pass_cost_ref=112.0)]
        failures = decide(parent, change)
        assert [line.split(":")[0] for line in failures] == ["peak_rss_mb"]

    def test_medians_are_compared(self):
        # One slow change run out of three is not a regression.
        parent = [result(pass_cost_ref=100.0) for _ in range(3)]
        change = [result(pass_cost_ref=value) for value in (99, 101, 400)]
        assert decide(parent, change) == []

    def test_higher_is_better_judged_in_its_direction(self):
        declared = [{"name": "evals_per_s", "better": "higher",
                     "bound": 0.25}]
        parent = [result(evals_per_s=100.0)]
        assert decide(parent, [result(evals_per_s=300.0)], declared) == []
        assert decide(parent, [result(evals_per_s=80.0)], declared) == []
        failures = decide(parent, [result(evals_per_s=70.0)], declared)
        assert failures == ["evals_per_s: +30.0% worse, bound 25%"]

    def test_lower_is_better_speedup_passes(self):
        parent = [result(pass_cost_ref=100.0)]
        change = [result(pass_cost_ref=50.0)]
        assert decide(parent, change) == []

    def test_incorrect_change_run_fails(self):
        parent = [result() for _ in range(3)]
        change = [result(), result(correct=False), result()]
        assert decide(parent, change) == ["1 change run(s) not correct"]

    def test_incorrect_parent_run_fails(self):
        parent = [result(correct=False)]
        assert decide(parent, [result()]) == ["1 parent run(s) not correct"]

    def test_larger_failed_share_fails(self):
        # Correctness aside, a change that fails more of its
        # operations than the parent does is refused.
        parent = [result(attempted=100, failed=1)]
        change = [result(attempted=100, failed=2)]
        failures = decide(parent, change)
        assert failures == ["failed share 1.00% -> 2.00%"]

    def test_equal_failed_share_passes(self):
        parent = [result(attempted=100, failed=1)]
        change = [result(attempted=200, failed=2)]
        assert decide(parent, change) == []

    def test_missing_metric_fails(self):
        crashed = {"correct": False, "attempted": 0, "failed": 0,
                   "metrics": {}}
        failures = decide([result()], [crashed])
        assert "1 change run(s) not correct" in failures
        assert "pass_cost_ref: no value on one side" in failures


def test_worse_by_from_zero():
    assert gate.worse_by(0.0, 0.0, "lower") == 0.0
    assert gate.worse_by(0.0, 1.0, "lower") == float("inf")
    assert gate.worse_by(0.0, 1.0, "higher") == -float("inf")


def test_benchmark_declares_what_the_gate_reads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declaration = json.load(handle)
    assert declaration["command"]
    assert declaration["run_seconds"] > 0
    assert all(workload["name"] for workload in declaration["workloads"])
    for metric in declaration["end_to_end"]:
        assert metric["better"] in ("lower", "higher")
        assert metric["bound"] > 0


class TestMain:
    def test_usage_error_exits_two(self, tmp_path, capsys):
        assert gate.main([str(tmp_path)]) == 2
        assert gate.main([str(tmp_path), str(tmp_path / "nope")]) == 2
        assert "Usage" in capsys.readouterr().err

    def test_runs_interleaved_pairs_and_gates(self, tmp_path, capsys):
        # A stand-in benchmark command: it logs which side ran and
        # prints that side's canned result line.
        log = tmp_path / "order.log"
        bench = tmp_path / "bench.py"
        bench.write_text(
            "import pathlib, sys\n"
            "side = pathlib.Path.cwd()\n"
            f"with open({str(log)!r}, 'a') as out:\n"
            "    out.write(side.name + ' ' + ' '.join(sys.argv[1:]) + '\\n')\n"
            "print('a progress line')\n"
            "print((side / 'result.json').read_text())\n"
        )
        declaration = {
            "command": [sys.executable, str(bench)],
            "run_seconds": 18,
            "workloads": [{"name": "w"}],
            "end_to_end": END_TO_END,
        }
        sides = {}
        for name, cost in (("parent", 100.0), ("change", 110.0)):
            side = tmp_path / name
            side.mkdir()
            if name == "change":
                # A workload the parent does not declare is not run.
                declaration["workloads"].append({"name": "fresh"})
            (side / "BENCHMARK.json").write_text(json.dumps(declaration))
            (side / "result.json").write_text(
                json.dumps(result(pass_cost_ref=cost)))
            sides[name] = str(side)
        assert gate.main([sides["parent"], sides["change"]]) == 0
        lines = log.read_text().splitlines()
        assert [line.split()[0] for line in lines] == [
            "parent", "change", "change", "parent", "parent", "change"]
        assert set(line.split(" ", 1)[1] for line in lines) == {
            "--workload w --seed 1 --seconds 18 --trace 0"}
        out = capsys.readouterr().out
        assert "fresh                new in the change" in out
        assert "+10.0%" in out and out.rstrip().endswith("perf gate: OK")

        (tmp_path / "change" / "result.json").write_text(
            json.dumps(result(pass_cost_ref=130.0)))
        assert gate.main([sides["parent"], sides["change"]]) == 1
        assert "perf gate: FAIL w: pass_cost_ref" in capsys.readouterr().out

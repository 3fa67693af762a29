"""A/B performance gate: a change against its parent, on one host.

Usage::

    python .github/perf_gate.py PARENT_DIR CHANGE_DIR

Each directory is a checkout (an export of one commit). Everything
else comes from the change's ``BENCHMARK.json``: the benchmark
``command``, its ``workloads``, ``run_seconds`` and each ``end_to_end``
metric's ``better`` direction and ``bound``. For each workload the gate
runs ``PAIRS`` interleaved parent/change pairs at ``--seed 1 --trace
0``, alternating which side runs first, and reads each run's last
stdout line (perfbench's JSON result line).

The gate fails when any run is not ``correct: true``, when the change
fails a larger share of its operations than the parent, or when the
change's median of an end-to-end metric is worse than the parent's
median by more than that metric's bound. It prints one row per
workload and metric. Exit status: 0 pass, 1 fail, 2 usage error.
"""

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

#: Interleaved parent/change pairs per workload.
PAIRS = 3
#: The seed of every gated run: the one with pinned golden digests.
SEED = 1


def run_once(command, directory, workload, seconds):
    """One benchmark run in ``directory``: its JSON result line as a dict.

    A run that exits non-zero or prints no result line counts as an
    incorrect run with no metrics.
    """
    child = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=directory, capture_output=True, text=True,
    )
    lines = child.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if child.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(child.stderr[-2000:])
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return result


def failed_share(results):
    attempted = sum(result.get("attempted", 0) for result in results)
    failed = sum(result.get("failed", 0) for result in results)
    return failed / attempted if attempted else 0.0


def worse_by(parent, change, better):
    """How much worse ``change`` is than ``parent``, as a fraction of it."""
    if parent == 0:
        delta = math.copysign(math.inf, change) if change else 0.0
    else:
        delta = (change - parent) / abs(parent)
    return -delta if better == "higher" else delta


def median_of(results, name):
    values = [
        result["metrics"][name]["value"]
        for result in results if name in result.get("metrics", {})
    ]
    return statistics.median(values) if values else None


def judge(end_to_end, parent, change):
    """Decide one workload from each side's result lines.

    ``end_to_end`` is ``BENCHMARK.json``'s list of metric declarations.
    Returns ``(rows, failures)``: one ``(metric, parent median, change
    median, worse by, bound, verdict)`` row per metric, and one line
    per reason the change fails (empty when it passes).
    """
    failures = []
    for side, results in (("parent", parent), ("change", change)):
        wrong = sum(result.get("correct") is not True for result in results)
        if wrong:
            failures.append(f"{wrong} {side} run(s) not correct")
    parent_share, change_share = failed_share(parent), failed_share(change)
    if change_share > parent_share:
        failures.append(
            f"failed share {parent_share:.2%} -> {change_share:.2%}"
        )
    rows = []
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        before, after = median_of(parent, name), median_of(change, name)
        if before is None or after is None:
            rows.append((name, before, after, None, bound, "missing"))
            failures.append(f"{name}: no value on one side")
            continue
        worse = worse_by(before, after, metric["better"])
        verdict = "ok"
        if worse > bound:
            verdict = "FAIL"
            failures.append(f"{name}: {worse:+.1%} worse, bound {bound:.0%}")
        rows.append((name, before, after, worse, bound, verdict))
    return rows, failures


def shown(value, spec):
    return "n/a" if value is None else format(value, spec)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(Path(arg).is_dir() for arg in argv):
        sys.stderr.write(__doc__)
        return 2
    parent_dir, change_dir = (Path(arg).resolve() for arg in argv)
    declaration = json.loads((change_dir / "BENCHMARK.json").read_text())
    command, seconds = declaration["command"], declaration["run_seconds"]
    parent_workloads = {
        entry["name"] for entry in
        json.loads((parent_dir / "BENCHMARK.json").read_text())["workloads"]
    }
    print(f"perf gate: {PAIRS} interleaved pairs per workload, "
          f"--seed {SEED} --seconds {seconds} --trace 0")
    print(f"{'workload':20s} {'metric':14s} {'parent':>10s} {'change':>10s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    failed = []
    for workload in (entry["name"] for entry in declaration["workloads"]):
        if workload not in parent_workloads:
            print(f"{workload:20s} new in the change: nothing to compare")
            continue
        sides = {parent_dir: [], change_dir: []}
        for pair in range(PAIRS):
            order = (parent_dir, change_dir) if pair % 2 == 0 else (
                change_dir, parent_dir)
            for directory in order:
                result = run_once(command, directory, workload, seconds)
                sides[directory].append(result)
                side = "parent" if directory == parent_dir else "change"
                sys.stderr.write(
                    f"perf gate: {workload} {side} run {pair + 1}/{PAIRS}: "
                    f"correct={result.get('correct')}\n")
        rows, failures = judge(
            declaration["end_to_end"], sides[parent_dir], sides[change_dir])
        for name, before, after, worse, bound, verdict in rows:
            print(f"{workload:20s} {name:14s} {shown(before, '10.4g')} "
                  f"{shown(after, '10.4g')} {shown(worse, '+9.1%')} "
                  f"{bound:6.0%}  {verdict}", flush=True)
        failed.extend(f"{workload}: {reason}" for reason in failures)
    for reason in failed:
        print(f"perf gate: FAIL {reason}")
    print("perf gate: FAIL" if failed else "perf gate: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare a pytest-benchmark JSON against a checked-in baseline.

CI runs ``bench_engine_micro.py`` into ``bench_engine_ci.json``,
``bench_sweep.py`` into ``bench_sweep_ci.json``,
``bench_surrogate.py`` into ``bench_surrogate_ci.json`` and
``bench_distributed.py`` into ``bench_distributed_ci.json``, then
calls this script once per file, which diffs every benchmark against
the pinned baseline (``BENCH_engine.json`` / ``BENCH_sweep.json`` /
``BENCH_surrogate.json`` / ``BENCH_distributed.json`` at the
repository root) and **fails** when a
gated benchmark is more than ``--threshold`` slower than the
baseline. Gated are the end-to-end runs — the full-model engine
benchmark, the two single-process sweep benchmarks, the surrogate
exploration block, and the four-node 2PC distributed run
— which average over enough work to be stable on
shared runners; the narrower microbenchmarks and the multi-worker
sweep are reported but only warn.

Usage::

    python benchmarks/check_bench_regression.py bench_engine_ci.json \
        [--baseline BENCH_engine.json] [--threshold 0.10]
    python benchmarks/check_bench_regression.py bench_sweep_ci.json \
        --baseline BENCH_sweep.json
    python benchmarks/check_bench_regression.py bench_surrogate_ci.json \
        --baseline BENCH_surrogate.json

Exit status: 0 = within threshold, 1 = gated regression, 2 = bad input
(missing file, no gated benchmark present).
"""

import argparse
import json
import sys

#: Benchmarks whose regression fails the build. The rest warn only.
#: A run needs to contain at least one of these; whichever appear in
#: both the current run and the baseline are enforced.
GATED_BENCHMARKS = (
    "test_full_model_bus_fast_path",
    "test_sweep_batched_lane_r4",
    "test_sweep_batched_lane_r12",
    "test_surrogate_explore_block",
    "test_distributed_four_node_2pc",
)

#: Default: fail on a >10% slowdown of a gated benchmark.
DEFAULT_THRESHOLD = 0.10


def load_means(path):
    """Mapping benchmark name -> mean seconds from a pytest-benchmark JSON."""
    with open(path) as f:
        data = json.load(f)
    return {
        bench["name"]: bench["stats"]["mean"]
        for bench in data["benchmarks"]
    }


def compare(current, baseline, gated=GATED_BENCHMARKS,
            threshold=DEFAULT_THRESHOLD):
    """Diff two name->mean mappings.

    Returns ``(failures, report_lines)`` where ``failures`` is the list
    of gated benchmarks over threshold (empty = pass). Benchmarks
    present on only one side are reported but never fail the gate.
    """
    failures = []
    lines = []
    for name in sorted(set(current) | set(baseline)):
        if name not in current:
            lines.append(f"  {name}: missing from current run")
            continue
        if name not in baseline:
            lines.append(f"  {name}: new benchmark (no baseline)")
            continue
        before, after = baseline[name], current[name]
        change = (after - before) / before
        marker = ""
        if name in gated:
            marker = " [gated]"
            if change > threshold:
                marker = " [gated: FAIL]"
                failures.append(name)
        lines.append(
            f"  {name}: {before:.6f}s -> {after:.6f}s "
            f"({change:+.1%}){marker}"
        )
    return failures, lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Gate CI on benchmark regressions vs a pinned baseline."
    )
    parser.add_argument(
        "current", help="pytest-benchmark JSON from this run"
    )
    parser.add_argument(
        "--baseline", default="BENCH_engine.json",
        help="pinned reference JSON (default: BENCH_engine.json)",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="fractional slowdown that fails a gated benchmark "
             "(default: 0.10)",
    )
    args = parser.parse_args(argv)
    try:
        current = load_means(args.current)
        baseline = load_means(args.baseline)
    except (OSError, KeyError, ValueError) as error:
        print(f"bench-gate: cannot load benchmark data: {error}",
              file=sys.stderr)
        return 2
    if not any(name in current for name in GATED_BENCHMARKS):
        print(
            f"bench-gate: none of the gated benchmarks "
            f"({', '.join(GATED_BENCHMARKS)}) appear in {args.current}",
            file=sys.stderr,
        )
        return 2
    failures, lines = compare(
        current, baseline, threshold=args.threshold
    )
    print(f"bench-gate: current={args.current} baseline={args.baseline} "
          f"threshold={args.threshold:.0%}")
    print("\n".join(lines))
    if failures:
        print(
            f"bench-gate: FAIL — {', '.join(failures)} regressed more "
            f"than {args.threshold:.0%} vs the pinned baseline",
            file=sys.stderr,
        )
        return 1
    print("bench-gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

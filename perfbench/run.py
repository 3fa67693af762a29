"""Benchmark command: host cost of the simulator on one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

1. set-up (importing the package and building the workload's inputs
   from the seed) runs in several child processes, each beside a
   reference child; ``setup_s`` is their median at the reference
   speed (see :func:`measure_setup`);
2. timed passes over the same inputs for ``--seconds``. The first
   pass's digests become the reference, which every later pass must
   reproduce (for the default seed, and for the seed-free explore
   workload, the reference is the pinned ``golden.json`` instead).
   Each pass is timed piece by piece (grid points, model segments,
   explore blocks), with the reference kernel of
   :mod:`perfbench.reference` timed between pieces; ``pass_cost_ref``
   is the pass's cost in kernel units (see :func:`reference_cost`).
   The pass walls' quartiles and count, and the sum of every piece's
   fastest time in seconds, are printed beside it;
3. for a seeded workload at any seed other than the default, one
   untimed check pass under the invariant checker (and, on the sweep,
   the operational bounds) that must reproduce the same digests.

``--trace 1`` runs untraced passes for a third of ``--seconds`` and
traced passes (see :mod:`perfbench.tracing`) for the rest, prints the
per-layer table and reports the per-layer metrics of the last traced
pass; its spans and table are written under ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is
one model run, one sweep replication or one explore call; it fails when
it raises, reports a failure, or its digest differs from the reference.

``--write-golden`` runs one pass at the default seed and pins its
digests in ``perfbench/golden.json``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

_STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden.json"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT))

from perfbench import reference  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    NOTES,
    UNITS,
    layer_metrics,
    layer_table,
    named_views,
)
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Set-up repetitions per run, each in a fresh child process.
SETUP_SAMPLES = 3
#: The reference child of :func:`measure_setup`: it times importing the
#: package's third-party dependencies (numpy comes with scipy.stats).
REFERENCE_CHILD = (
    "import json, time; begun = time.perf_counter(); import scipy.stats; "
    "print(json.dumps({'setup_s': time.perf_counter() - begun}))"
)
#: The reference child's median seconds on the 2-core x86 VM the
#: benchmark was tuned on; ``setup_s`` is in seconds of that host.
REFERENCE_IMPORT_S = 1.1
#: Share of a traced run's time spent on untraced reference passes.
UNTRACED_SHARE = 1.0 / 3.0


def bootstrap():
    """Import the package from this checkout's sources, or exit 2."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        sys.stderr.write(f"perfbench: no package sources at {package}\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        sys.stderr.write(
            f"perfbench: imported {repro.__file__}, not {package}\n"
        )
        sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Host cost of the simulator, end to end or per layer.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true",
                        help="pin the default seed's digests and exit")
    return parser.parse_args(argv)


# -- passes and their accounting -----------------------------------------------------


class Ledger:
    """Counts attempted and failed operations against reference digests.

    Without a reference, the first recorded pass becomes it.
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def record(self, outcome, operations):
        self.attempted += operations
        if self.reference is None:
            self.reference = dict(outcome.digests)
        bad = {key for key, _ in outcome.errors}
        bad.update(
            key for key, expected in self.reference.items()
            if outcome.digests.get(key) != expected
        )
        bad.update(set(outcome.digests) - set(self.reference))
        for key, message in outcome.errors:
            sys.stderr.write(f"perfbench: {key}: {message}\n")
        for key in sorted(bad):
            sys.stderr.write(f"perfbench: operation {key} failed\n")
        self.failed += min(len(bad), operations)

    def crashed(self, operations):
        """A pass that raised: every operation of it failed."""
        traceback.print_exc(file=sys.stderr)
        self.attempted += operations
        self.failed += operations


class Laps:
    """Split times of one pass, taken at its pieces' ends.

    With ``calibrate``, the reference kernel is also timed before the
    first piece and after every piece, outside the pieces' times, so
    ``references`` holds one more time than ``pieces``.
    """

    def __init__(self, calibrate=False):
        self.pieces = []
        self.references = []
        self._calibrate = calibrate
        self._time_reference()
        self._last = time.perf_counter()

    def _time_reference(self):
        if self._calibrate:
            begun = time.perf_counter()
            reference.kernel()
            self.references.append(time.perf_counter() - begun)

    def __call__(self, *_):
        self.pieces.append(time.perf_counter() - self._last)
        self._time_reference()
        self._last = time.perf_counter()


def run_pass(workload, inputs, ledger, strict=False, tracer=None):
    """One pass, accounted in ``ledger``: (its :class:`Laps` or None, outcome).

    Only the workload's own run is timed (and traced, with a
    ``tracer``); reading and digesting its results is not. The time
    from the last lap to the run's return is one more piece. Untraced
    passes are calibrated; traced ones are not, since a sweep's laps
    run inside a traced span.
    """
    operations = workload.operations(inputs)
    try:
        if tracer is None:
            laps = Laps(calibrate=True)
            results = workload.run(inputs, strict=strict, lap=laps)
        else:
            tracer.reset()
            with tracer.active():
                laps = Laps()
                results = workload.run(inputs, strict=strict, lap=laps)
        laps()
        outcome = workload.outcome(inputs, results, strict=strict)
    except Exception:
        ledger.crashed(operations)
        return None, None
    ledger.record(outcome, operations)
    return laps, outcome


def repeat_passes(workload, inputs, ledger, seconds, tracer=None):
    """Passes for about ``seconds``, at least one.

    Returns the :class:`Laps` of every pass that completed, and the
    last outcome. The loop stops before a pass that would overrun
    ``seconds``. With a ``tracer``, every pass runs traced and the
    tracer keeps the last.
    """
    passes = []
    outcome = None
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        laps, result = run_pass(workload, inputs, ledger, tracer=tracer)
        if laps is not None:
            passes.append(laps)
            outcome = result
        now = time.perf_counter()
        if now - started + (now - begun) > seconds:
            return passes, outcome


def fastest_pass(passes):
    """Each piece's fastest time in seconds across ``passes``, summed."""
    if len({len(laps.pieces) for laps in passes}) != 1:
        return min(sum(laps.pieces) for laps in passes)
    return sum(min(times) for times in zip(*(laps.pieces for laps in passes)))


def reference_cost(passes):
    """A pass's cost in reference-kernel units, from calibrated ``passes``.

    Each piece's time is divided by the mean of the kernel times just
    before and after it, which the host's drift moves together with
    the piece; the median of that ratio over the passes is taken piece
    by piece and summed.
    """
    ratios = [
        [piece / (0.5 * (before + after))
         for piece, before, after in zip(
             laps.pieces, laps.references, laps.references[1:])]
        for laps in passes
    ]
    if len({len(row) for row in ratios}) != 1:
        return statistics.median(sum(row) for row in ratios)
    return sum(statistics.median(column) for column in zip(*ratios))


def pinned_digests(workload_name):
    if not GOLDEN.is_file():
        return {}
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle).get(workload_name, {})


def write_golden(workload, inputs):
    outcome = workload.outcome(inputs, workload.run(inputs))
    if outcome.errors:
        raise SystemExit(f"perfbench: not pinning a failed pass: {outcome.errors}")
    golden = {}
    if GOLDEN.is_file():
        with open(GOLDEN, encoding="utf-8") as handle:
            golden = json.load(handle)
    golden[workload.name] = outcome.digests
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(outcome.digests)} digests for {workload.name}")


# -- set-up ------------------------------------------------------------------------


def setup_probe(workload, seed):
    """Child-process body: time the import plus the input construction."""
    bootstrap()
    workload.build(seed)
    print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))


def child_seconds(arguments):
    """The seconds a fresh interpreter running ``arguments`` prints last."""
    child = subprocess.run(
        [sys.executable, *arguments], cwd=str(ROOT), capture_output=True,
        text=True, timeout=120, check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])["setup_s"]


def measure_setup(workload, seed):
    """Set-up seconds at the reference speed, and the raw median.

    Each set-up child runs right after a reference child that imports
    only the package's third-party dependencies. The host's speed for
    this kind of work drifts by up to 1.7x over tens of minutes, and
    the reference drifts with it: the set-up's ratio to the reference,
    times ``REFERENCE_IMPORT_S``, is what is reported, as the median
    over ``SETUP_SAMPLES`` pairs.
    """
    ratios = []
    samples = []
    for _ in range(SETUP_SAMPLES):
        reference_s = child_seconds(["-c", REFERENCE_CHILD])
        samples.append(child_seconds([
            str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload.name, "--seed", str(seed),
        ]))
        ratios.append(samples[-1] / reference_s)
    return (REFERENCE_IMPORT_S * statistics.median(ratios),
            statistics.median(samples))


# -- the two kinds of run ------------------------------------------------------------


def describe_walls(walls):
    if not walls:
        return "no pass completed"
    if len(walls) >= 2:
        q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    else:
        q1 = median = q3 = walls[0]
    return (
        f"{len(walls)} passes: min {min(walls):.4f} s, q1 {q1:.4f} s, "
        f"median {median:.4f} s, q3 {q3:.4f} s"
    )


def print_rows(title, rows):
    print(title)
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {unit:6s} {note}")


def end_to_end(workload, inputs, seed, seconds, ledger):
    setup_s, raw_setup_s = measure_setup(workload, seed)
    passes, outcome = repeat_passes(workload, inputs, ledger, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = ""
    if workload.seeded and seed != DEFAULT_SEED:
        run_pass(workload, inputs, ledger, strict=True)
        checked = " (+ an invariant check pass)"
    wall = fastest_pass(passes) if passes else 0.0
    cost = reference_cost(passes) if passes else 0.0
    units = workload.units(outcome) if outcome is not None else 0
    metrics = {
        "pass_cost_ref": cost,
        "op_cost_mref": 1e3 * cost / units if units else 0.0,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }
    walls = [sum(laps.pieces) for laps in passes]
    kernel_ms = 1e3 * statistics.median(
        seconds for laps in passes for seconds in laps.references
    ) if passes else 0.0
    print(f"perfbench {workload.name} seed={seed}: {describe_walls(walls)}"
          f"{checked}; fastest pieces sum to {wall:.4f} s over "
          f"{len(passes[0].pieces) if passes else 0} pieces; "
          f"reference kernel median {kernel_ms:.3f} ms; "
          f"raw set-up median {raw_setup_s:.4f} s")
    print_rows("end-to-end metrics (untraced):", [
        (name, value, UNITS[name], NOTES[name])
        for name, value in metrics.items()
    ])
    print_rows("workload views of the fastest pass:",
               named_views(workload, outcome, wall, setup_s, rss_mb, ledger))
    return metrics


def per_layer(workload, inputs, seed, seconds, ledger):
    untraced, _ = repeat_passes(
        workload, inputs, ledger, seconds * UNTRACED_SHARE
    )
    untraced = [sum(laps.pieces) for laps in untraced]
    tracer = Tracer()
    traced, outcome = repeat_passes(
        workload, inputs, ledger, seconds * (1.0 - UNTRACED_SHARE),
        tracer=tracer,
    )
    walls = [sum(laps.pieces) for laps in traced]
    wall = walls[-1] if walls else 0.0
    own = tracer.self_seconds(wall)
    metrics = layer_metrics(tracer, own, wall, outcome)
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(walls) / statistics.median(untraced) - 1.0)
        if walls and untraced else 0.0
    )
    table = layer_table(tracer, own, wall)
    OUT_DIR.mkdir(exist_ok=True)
    stem = str(OUT_DIR / f"{workload.name}-seed{seed}")
    tracer.write(stem + "-spans",
                 {"workload": workload.name, "seed": seed, "wall_s": wall})
    with open(stem + "-layers.json", "w", encoding="utf-8") as handle:
        json.dump({"layers": table, "metrics": metrics}, handle, indent=2)
    print(f"perfbench {workload.name} seed={seed}: untraced "
          f"{describe_walls(untraced)}; traced {describe_walls(walls)}")
    print(f"layer self time of the last traced pass ({wall:.3f} s wall):")
    for row in table:
        print(f"  {row['layer']:12s} {row['self_s']:10.4f} s "
              f"{100 * row['share']:6.2f} % {row['calls']:>10d} calls")
    print_rows("per-layer metrics:", [
        (name, value, UNITS[name], "") for name, value in metrics.items()
    ])
    return metrics


def result_line(ledger, metrics):
    return json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    })


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed)
        return 0
    bootstrap()
    if args.write_golden:
        write_golden(workload, workload.build(DEFAULT_SEED))
        return 0
    inputs = workload.build(args.seed)
    pinned = None
    if args.seed == DEFAULT_SEED or not workload.seeded:
        pinned = pinned_digests(workload.name)
    ledger = Ledger(reference=pinned)
    if args.trace:
        metrics = per_layer(workload, inputs, args.seed, args.seconds, ledger)
    else:
        metrics = end_to_end(
            workload, inputs, args.seed, args.seconds, ledger
        )
    print(result_line(ledger, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

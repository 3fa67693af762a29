"""Sweep files: saving, checkpointing and reloading experiment sweeps.

Full-fidelity sweeps take real time; this module persists everything a
report or shape-check needs — the per-batch values of every output
variable at every grid point — and reconstructs a
:class:`~repro.experiments.runner.SweepResult` whose results answer
``mean``/``interval``/``describe`` exactly like live ones (they are
rebuilt on real ``BatchMeansAnalyzer``s).

Every sweep file has one format: a JSONL file holding one header line
plus one line per attempted point (failed points included, so their
statuses survive), each line carrying a CRC32 suffix.
:class:`SweepCheckpoint` appends the point lines while the resilient
runner works, flushed and fsynced as each point finishes;
:func:`save_sweep` writes a finished sweep's file in one go, with its
lines sorted by (key, rep) and its wall time in the header.
One scanner reads both::

    sweep = run_sweep(config, run=RunConfig(batches=20, batch_time=120))
    save_sweep(sweep, "exp3.ckpt.jsonl")
    ...
    sweep = load_sweep("exp3.ckpt.jsonl")   # report without resimulating

Point lines may appear in *any* order — a parallel sweep's parent
flushes them in completion order, which varies with worker scheduling —
and restoring keys them by (key, rep), so a checkpoint
written with ``workers=N`` resumes identically to one written
sequentially.  A sweep killed mid-flight resumes by loading the
checkpoint and re-running only the missing points::

    run_sweep(config, checkpoint="exp3.ckpt.jsonl")            # killed...
    run_sweep(config, checkpoint="exp3.ckpt.jsonl", resume=True)

Identity (format v4): the header binds the experiment id, the run
config, the replication count, the preset's whole parameter set as
:meth:`~repro.core.SimulationParameters.canonical` data (None for a
finding's :class:`~repro.experiments.configs.FixedGrid`) and the
distinct params fingerprints of the config's whole grid, so a resume
under any edited field is refused, naming it. Point lines carry their
grid key. Older files are refused, with a hint to start fresh.

Crash safety:

* Whole-file writes (:func:`save_sweep`, the checkpoint header) go
  through :func:`atomic_write_text` — tmp file in the same directory,
  flush + fsync, then ``os.replace`` — so a kill mid-write can never
  destroy the previous good file, and an fsync failure abandons the
  tmp file instead of publishing unsynced data.
* Every line carries a CRC32 suffix (``<json>\\t#crc32:<8 hex>``).
  Reading keeps the longest valid prefix: the first torn, garbled or
  CRC-mismatched line ends it. A resume restores that prefix and
  repairs the file by truncating the corrupt tail, so subsequent
  appends start on a clean line boundary; :func:`load_sweep` refuses
  the file instead.
* :func:`verify_checkpoint` is the read-only auditor behind the CLI's
  ``--verify-checkpoint``: it reports the valid prefix of any sweep
  file without modifying it.
"""

import binascii
import json
import os
from collections import namedtuple
from dataclasses import asdict

from repro.core import RunConfig
from repro.core.params import canonical_fingerprint
from repro.core.simulation import SimulationResult
from repro.experiments.configs import experiment_configs
from repro.experiments.errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
)
from repro.experiments.runner import PointStatus, SweepResult
from repro.stats import BatchMeansAnalyzer

#: Format marker of a sweep file (v4 = per-point grid identity; every
#: version before it is refused).
CHECKPOINT_FORMAT = "repro-sweep-checkpoint-v4"

#: How every sweep file this package ever wrote starts, whatever its
#: version (json.dumps keeps the header's insertion order, "format"
#: first).
_HEADER_PREFIX = '{"format": "repro-sweep-'

#: Why an older-format checkpoint is refused.
_OLDER_FORMAT = "older checkpoint format; cannot be resumed, start fresh"

#: Why an empty file is no sweep file.
_EMPTY = "empty file (no header line)"

#: Separator between a line's JSON payload and its CRC32 suffix.
CRC_SEPARATOR = "\t#crc32:"

#: Seam for fault injection (repro.chaos.FlakyFsync) and tests.
_fsync = os.fsync


def atomic_write_text(path, text):
    """Write ``text`` to ``path`` atomically (tmp + fsync + replace).

    The tmp file lives in the target's directory so the final
    ``os.replace`` is a same-filesystem rename — atomic on POSIX. A
    crash or fsync failure at any earlier step leaves ``path``
    untouched (the tmp file is removed best-effort and the error
    propagates).
    """
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "w") as f:
            f.write(text)
            f.flush()
            _fsync(f.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def encode_checkpoint_line(document):
    """One checkpoint line: compact JSON plus its CRC32 suffix."""
    text = json.dumps(document)
    crc = binascii.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    return f"{text}{CRC_SEPARATOR}{crc:08x}\n"


def decode_checkpoint_line(raw):
    """Parse one checkpoint line, verifying its CRC32 suffix.

    Raises ``ValueError`` on a missing or mismatched CRC or on
    undecodable JSON.
    """
    raw = raw.rstrip("\n")
    text, separator, suffix = raw.rpartition(CRC_SEPARATOR)
    if not separator:
        raise ValueError("checkpoint line has no CRC32 suffix")
    try:
        expected = int(suffix, 16)
    except ValueError:
        raise ValueError(
            f"malformed CRC32 suffix {suffix!r}"
        ) from None
    actual = binascii.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    if actual != expected:
        raise ValueError(
            f"CRC32 mismatch: line says {expected:08x}, "
            f"content is {actual:08x}"
        )
    return json.loads(text)


def _point_line(key, rep, result, status):
    """The encoded line of one attempted point (result None = failed).

    ``rep`` 0 is omitted, and ``diagnostics`` (per-point observability:
    sampled time-series, trace-file pointers) is included only when
    present. A result's ``algorithm`` is the name its CC reports.
    """
    line = {
        "key": list(key),
        "status": {
            "status": status.status,
            "attempts": status.attempts,
            "error": status.error,
            "wall_seconds": status.wall_seconds,
        },
    }
    if rep:
        line["rep"] = rep
    if result is not None:
        line["algorithm"] = result.algorithm
        line["series"] = {
            name: result.analyzer.series(name).values
            for name in result.analyzer.names()
        }
        line["totals"] = _jsonable(result.totals)
        if result.diagnostics is not None:
            line["diagnostics"] = _jsonable(result.diagnostics)
    return encode_checkpoint_line(line)


def _restore(sweep, points):
    """Record decoded point lines into ``sweep``, rebuilding results.

    Each successful point's batch series is replayed into a fresh
    ``BatchMeansAnalyzer`` and labelled with its grid point's params;
    every point goes through :meth:`SweepResult.record_replicate`, the
    write path the runner shares.
    """
    for point in points:
        key = tuple(point["key"])
        status = point["status"]
        result = None
        if "series" in point:
            series = point["series"]
            analyzer = BatchMeansAnalyzer(
                warmup_batches=0, confidence=sweep.run.confidence
            )
            length = max((len(v) for v in series.values()), default=0)
            for index in range(length):
                analyzer.record({
                    name: values[index]
                    for name, values in series.items()
                    if index < len(values)
                })
            result = SimulationResult(
                algorithm=point["algorithm"],
                params=sweep.config.point(key).params,
                run=sweep.run,
                analyzer=analyzer,
                totals=point.get("totals") or {},
                diagnostics=point.get("diagnostics"),
            )
        sweep.record_replicate(
            key, point.get("rep", 0), result,
            PointStatus(
                status=status["status"],
                attempts=status.get("attempts", 1),
                error=status.get("error"),
                wall_seconds=status.get("wall_seconds", 0.0),
            ),
        )


def save_sweep(sweep, path):
    """Write a finished sweep as a complete sweep file.

    The header is :class:`SweepCheckpoint`'s plus the sweep's
    ``wall_seconds``; then one line per attempted replication, sorted
    by (key, rep), in the bytes
    :meth:`SweepCheckpoint.record` appends. The write is atomic: a
    kill mid-save leaves any previous file at ``path`` exactly as it
    was.
    """
    header = SweepCheckpoint(
        path, sweep.config, sweep.run, sweep.replications
    )._header()
    header["wall_seconds"] = sweep.wall_seconds
    lines = [encode_checkpoint_line(header)]
    for (*key, rep), status in sorted(sweep.replicate_statuses.items()):
        key = tuple(key)
        result = sweep.replicates.get(key, {}).get(rep)
        lines.append(_point_line(key, rep, result, status))
    atomic_write_text(path, "".join(lines))
    return path


def load_sweep(path):
    """Rebuild a :class:`SweepResult` from a sweep file.

    Reads what :func:`save_sweep` writes and what a checkpointed
    ``run_sweep`` leaves. The experiment config is resolved from the
    current registry by the header's id; an unknown id (e.g. a renamed
    preset) or recorded ``params`` that differ from the preset's (a
    sweep run with overlaid fields) are errors rather than results
    labelled with the wrong parameters. Points are restored through the
    code :meth:`SweepCheckpoint.load_into` uses. Every refusal is a
    ``ValueError`` naming ``path``, a corrupt line included: a partial
    file is never loaded silently (a resume salvages one instead).
    """
    try:
        scan = _scan(path)
    except CheckpointMismatchError as error:
        raise ValueError(str(error)) from None
    if scan is None:
        raise ValueError(f"{path}: {_EMPTY}")
    if scan.corrupt_line is not None:
        raise ValueError(
            f"{path}: line {scan.corrupt_line} is corrupt "
            f"({scan.detail}); refusing to load a partial sweep"
        )
    header = scan.header
    configs = experiment_configs()
    experiment_id = header.get("experiment_id")
    if experiment_id not in configs:
        raise ValueError(
            f"{path}: unknown experiment {experiment_id!r}; "
            f"known: {sorted(configs)}"
        )
    config = configs[experiment_id]
    differing = params_differences(header.get("params") or {},
                                   config.params)
    if differing:
        raise ValueError(
            f"{path}: the sweep ran with params that differ from the "
            f"{experiment_id!r} preset in {', '.join(differing)}; "
            f"reloading it would label its results with the preset's"
        )
    try:
        sweep = SweepResult(
            config=config, run=RunConfig(**header["run"]),
            replications=header["replications"],
        )
    except (KeyError, TypeError) as error:
        raise ValueError(
            f"{path}: unreadable header ({error!r})"
        ) from None
    sweep.wall_seconds = header.get("wall_seconds", 0.0)
    _restore(sweep, scan.points)
    return sweep


def params_differences(stored, params):
    """Sorted names of the fields where ``stored`` differs from ``params``.

    ``stored`` is :meth:`SimulationParameters.canonical` data read back
    from a file; a field missing on either side counts as differing.
    """
    current = params.canonical()
    return sorted(
        name for name in stored.keys() | current.keys()
        if stored.get(name) != current.get(name)
    )


def read_checkpoint_header(path, raw):
    """Decode a sweep file's header line and check its format.

    Raises :class:`CheckpointMismatchError` for an older-format file
    (it cannot prove which parameters it ran under) or a file that is
    no sweep file at all, and :class:`CheckpointCorruptError` when the
    line cannot be read.
    """
    if (raw.startswith(_HEADER_PREFIX)
            and not raw.startswith(f'{{"format": "{CHECKPOINT_FORMAT}"')):
        raise CheckpointMismatchError(f"{path}: {_OLDER_FORMAT}")
    try:
        header = decode_checkpoint_line(raw)
    except ValueError as error:
        raise CheckpointCorruptError(
            f"{path}: checkpoint header is corrupt ({error}); "
            f"nothing is salvageable without it — delete the file "
            f"or re-run without --resume"
        ) from None
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointMismatchError(
            f"{path}: not a sweep checkpoint "
            f"(format {header.get('format')!r})"
        )
    return header


#: What :func:`_scan` read: the header, the file's raw lines, the
#: decoded points of the valid prefix, and the first invalid line's
#: 1-based number and reason (both None when every line is valid).
_Scan = namedtuple("_Scan", "header lines points corrupt_line detail")


def _scan(path):
    """Read a sweep file: its header, then its valid prefix of points.

    Returns None for an empty file. The prefix ends at the first torn,
    garbled or CRC-mismatched point line. Raises
    :func:`read_checkpoint_header`'s errors when the header is not a
    readable current-format one.
    """
    with open(path, "rb") as f:
        text = f.read().decode("utf-8", errors="replace")
    lines = text.splitlines(keepends=True)
    if not lines:
        return None
    header = read_checkpoint_header(path, lines[0])
    points = []
    for number, raw in enumerate(lines[1:], start=2):
        # A line without its newline is a torn tail by definition:
        # even if its content decodes, appending after it would merge
        # records, so the valid prefix ends before it.
        if not raw.endswith("\n"):
            return _Scan(header, lines, points, number,
                         "torn trailing line (no newline)")
        try:
            points.append(decode_checkpoint_line(raw))
        except ValueError as error:
            return _Scan(header, lines, points, number, str(error))
    return _Scan(header, lines, points, None, None)


class SweepCheckpoint:
    """Append-only per-point checkpoint of one sweep (JSONL + CRC).

    Line 1 is a header binding the file to (experiment id, run config,
    replications, the preset's canonical params, the grid's params
    fingerprints); each further line records one completed point by
    its key — its status always, its measurement payload when it
    succeeded.  Every line carries a
    CRC32 suffix.  Writes are flushed and fsynced so a killed process
    loses at most the in-flight point; the header itself is written
    atomically.  On load, the longest valid prefix is salvaged: a
    torn trailing line (kill mid-write) or a corrupted record ends the
    restore, and the corrupt tail is truncated away so resumed appends
    start on a clean line boundary.
    """

    def __init__(self, path, config, run, replications=1):
        self.path = path
        self.config = config
        self.run = run
        #: Replications per grid point this sweep was launched with.
        self.replications = replications
        #: Lines dropped by the last load_into's salvage (0 = clean).
        self.salvage_dropped = 0

    def exists(self):
        """True when the file holds something to resume from.

        An empty file (say, created before a kill) counts as absent,
        so a resume starts fresh and writes the header.
        """
        return os.path.exists(self.path) and os.path.getsize(self.path) > 0

    def _header(self):
        params = self.config.params
        return {
            "format": CHECKPOINT_FORMAT,
            "experiment_id": self.config.experiment_id,
            "run": asdict(self.run),
            "replications": self.replications,
            "params": None if params is None else params.canonical(),
            "fingerprints": list(dict.fromkeys(
                point.params.fingerprint() for point in self.config.grid()
            )),
        }

    def start_fresh(self):
        """Atomically (re)create the file holding only the header line."""
        atomic_write_text(self.path, encode_checkpoint_line(self._header()))

    def record(self, key, result, status, rep=0):
        """Append one completed point (result is None for failures)."""
        with open(self.path, "a") as f:
            f.write(_point_line(key, rep, result, status))
            f.flush()
            _fsync(f.fileno())

    def _check_header(self, header):
        """Raise CheckpointMismatchError unless the header matches.

        The error names every differing field: ``experiment_id``,
        ``run``, ``replications``, a :class:`SimulationParameters`
        field of the preset, or else ``fingerprints`` when a grid
        point's params changed. Other header keys (a saved sweep's
        ``wall_seconds``) are not compared.
        """
        expected = self._header()
        differing = [
            key for key in ("experiment_id", "run", "replications")
            if header.get(key) != expected[key]
        ]
        if self.config.params is not None:
            differing += params_differences(
                header.get("params") or {}, self.config.params
            )
        if not differing and (
                header.get("fingerprints") != expected["fingerprints"]):
            differing.append("fingerprints")
        if differing:
            raise CheckpointMismatchError(
                f"{self.path}: checkpoint differs from this sweep in "
                f"{', '.join(differing)}; resuming replays recorded "
                f"points verbatim, so every field must match"
            )

    def load_into(self, sweep, repair=True):
        """Restore recorded points into ``sweep``; returns their count.

        Raises :class:`CheckpointMismatchError` unless the header is
        current-format and its experiment id, run config, replication
        count and grid parameters match this sweep exactly — resuming
        replays points verbatim, so a mismatch would silently mix
        results from different settings — and
        :class:`CheckpointCorruptError` when the header itself cannot
        be read (nothing is salvageable without it).

        Point lines are restored up to the first invalid one (torn,
        garbled, or CRC-mismatched); ``salvage_dropped`` records how
        many lines the salvage discarded. With ``repair`` (the
        default), the corrupt tail is truncated off the file so later
        appends start on a clean line boundary — without it the file
        is left untouched (read-only auditing).
        """
        self.salvage_dropped = 0
        scan = _scan(self.path)
        if scan is None:
            return 0
        self._check_header(scan.header)
        _restore(sweep, scan.points)
        restored = len(scan.points)
        self.salvage_dropped = len(scan.lines) - 1 - restored
        if repair and self.salvage_dropped:
            valid_bytes = sum(
                len(raw.encode("utf-8")) for raw in scan.lines[:1 + restored]
            )
            with open(self.path, "r+b") as f:
                f.truncate(valid_bytes)
                _fsync(f.fileno())
        return restored


def verify_checkpoint(path):
    """Read-only integrity audit of a sweep file.

    Returns a report dict: ``ok`` (every line valid), ``format``,
    ``experiment_id``, ``replications``, the preset params
    ``fingerprint`` (None for a fixed grid) and the grid's distinct
    params ``fingerprints`` from the header (all None when the header
    is unreadable or not current-format), ``point_lines``,
    ``valid_points`` (the salvageable
    prefix), ``first_corrupt_line`` (1-based line number, None when
    clean) and ``detail`` describing the first problem found. Never
    modifies the file.
    """
    report = {
        "path": path,
        "ok": False,
        "format": None,
        "experiment_id": None,
        "replications": None,
        "fingerprint": None,
        "fingerprints": None,
        "point_lines": 0,
        "valid_points": 0,
        "first_corrupt_line": None,
        "detail": None,
    }
    try:
        scan = _scan(path)
    except OSError as error:
        report["detail"] = str(error)
        return report
    except CheckpointCorruptError as error:
        report["first_corrupt_line"] = 1
        report["detail"] = str(error)
        return report
    except CheckpointMismatchError as error:
        report["detail"] = str(error)
        return report
    if scan is None:
        report["detail"] = _EMPTY
        return report
    header = scan.header
    params = header.get("params")
    report.update(
        ok=scan.corrupt_line is None,
        format=header["format"],
        experiment_id=header.get("experiment_id"),
        replications=header.get("replications"),
        fingerprint=None if params is None else canonical_fingerprint(params),
        fingerprints=header.get("fingerprints"),
        point_lines=len(scan.lines) - 1,
        valid_points=len(scan.points),
        first_corrupt_line=scan.corrupt_line,
        detail=scan.detail,
    )
    return report


def _jsonable(value):
    """Totals contain only JSON-friendly values; coerce defensively."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)

"""Saving and reloading experiment sweeps, and sweep checkpoints.

Full-fidelity sweeps take real time; this module persists everything a
report or shape-check needs — the per-batch values of every output
variable at every (algorithm, mpl) point — as a single JSON document,
and reconstructs a :class:`~repro.experiments.runner.SweepResult` whose
results answer ``mean``/``interval``/``describe`` exactly like live
ones (they are rebuilt on real ``BatchMeansAnalyzer``s).

    sweep = run_sweep(config, run=RunConfig(batches=20, batch_time=120))
    save_sweep(sweep, "exp3.json")
    ...
    sweep = load_sweep("exp3.json")   # plot/report without resimulating

:class:`SweepCheckpoint` is the incremental sibling used by the
resilient runner: an append-only JSONL file holding one header line
plus one line per completed point (failed points included, so their
statuses survive), flushed and fsynced as each point finishes.  Point
lines may appear in *any* order — a parallel sweep's parent flushes
them in completion order, which varies with worker scheduling — and
:meth:`SweepCheckpoint.load_into` keys them by (algorithm, mpl), so a
checkpoint written with ``workers=N`` resumes identically to one
written sequentially.  A sweep killed mid-flight resumes by loading
the checkpoint and re-running only the missing points::

    run_sweep(config, checkpoint="exp3.ckpt.jsonl")            # killed...
    run_sweep(config, checkpoint="exp3.ckpt.jsonl", resume=True)

Identity (format v3): the header binds the experiment id, the run
config, the replication count and the whole parameter set as
:meth:`~repro.core.SimulationParameters.canonical` data, so a resume
under any edited field is refused with every differing field named.
Older headers cannot prove which parameters they ran under; they are
refused too, with a hint to start fresh.

Crash safety:

* Whole-file writes (:func:`save_sweep`, the checkpoint header) go
  through :func:`atomic_write_text` — tmp file in the same directory,
  flush + fsync, then ``os.replace`` — so a kill mid-write can never
  destroy the previous good file, and an fsync failure abandons the
  tmp file instead of publishing unsynced data.
* Every checkpoint line carries a CRC32 suffix
  (``<json>\\t#crc32:<8 hex>``). Loading salvages the longest valid
  prefix: the first torn, garbled or CRC-mismatched line ends the
  salvage, everything before it is restored, and (on resume) the file
  is repaired by truncating the corrupt tail so subsequent appends
  start on a clean line boundary.
* :func:`verify_checkpoint` is the read-only auditor behind the CLI's
  ``--verify-checkpoint``: it reports the salvageable prefix without
  modifying the file.
"""

import binascii
import json
import os
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

#: Format marker for forward compatibility.
FORMAT = "repro-sweep-v1"

#: Format marker of the incremental checkpoint file (v3 = whole-params
#: identity; every version before it is refused).
CHECKPOINT_FORMAT = "repro-sweep-checkpoint-v3"

#: How every checkpoint header line starts, whatever its version
#: (json.dumps keeps the header's insertion order, "format" first).
_HEADER_PREFIX = '{"format": "repro-sweep-checkpoint-'

#: Why an older-format checkpoint is refused.
_OLDER_FORMAT = "older checkpoint format; cannot be resumed, start fresh"

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


def _point_payload(result):
    """The serializable measurement payload of one successful point.

    ``diagnostics`` (per-point observability: sampled time-series,
    trace-file pointers) is included only when present, so documents
    written without observability are byte-identical to the v1 layout
    and old readers simply ignore the extra key.
    """
    payload = {
        "series": {
            name: result.analyzer.series(name).values
            for name in result.analyzer.names()
        },
        "totals": _jsonable(result.totals),
    }
    if result.diagnostics is not None:
        payload["diagnostics"] = _jsonable(result.diagnostics)
    return payload


def _rebuild_result(algorithm, mpl, series, totals, config, run,
                    diagnostics=None):
    """Reconstruct a SimulationResult from its saved batch series."""
    analyzer = BatchMeansAnalyzer(
        warmup_batches=0, confidence=run.confidence
    )
    length = max((len(v) for v in series.values()), default=0)
    for index in range(length):
        analyzer.record({
            name: values[index]
            for name, values in series.items()
            if index < len(values)
        })
    return SimulationResult(
        algorithm=algorithm,
        params=config.params_for(mpl),
        run=run,
        analyzer=analyzer,
        totals=totals or {},
        diagnostics=diagnostics,
    )


def _status_document(status):
    return {
        "status": status.status,
        "attempts": status.attempts,
        "error": status.error,
        "wall_seconds": status.wall_seconds,
    }


def _status_from_document(document):
    return PointStatus(
        status=document["status"],
        attempts=document.get("attempts", 1),
        error=document.get("error"),
        wall_seconds=document.get("wall_seconds", 0.0),
    )


def save_sweep(sweep, path):
    """Serialize a sweep (config id, run settings, all batch series).

    One ``points`` entry per recorded replication and one ``statuses``
    entry per attempted one, each sorted by (algorithm, mpl, rep).
    Replication 0 carries no ``rep`` key and a one-replication sweep no
    ``replications`` key, so every R=1 document has the original
    layout. The write is atomic: a kill mid-save leaves any previous
    file at ``path`` exactly as it was.
    """
    points = []
    for (algorithm, mpl), reps in sorted(sweep.replicates.items()):
        for rep in sorted(reps):
            entry = {"algorithm": algorithm, "mpl": mpl}
            if rep:
                entry["rep"] = rep
            entry.update(_point_payload(reps[rep]))
            points.append(entry)
    statuses = []
    for (algorithm, mpl, rep) in sorted(sweep.replicate_statuses):
        entry = {"algorithm": algorithm, "mpl": mpl}
        if rep:
            entry["rep"] = rep
        entry.update(_status_document(
            sweep.replicate_statuses[(algorithm, mpl, rep)]
        ))
        statuses.append(entry)
    document = {
        "format": FORMAT,
        "experiment_id": sweep.config.experiment_id,
        "params": sweep.config.params.canonical(),
        "fingerprint": sweep.config.params.fingerprint(),
        "run": asdict(sweep.run),
        "wall_seconds": sweep.wall_seconds,
        "points": points,
        "statuses": statuses,
    }
    if sweep.replications != 1:
        document["replications"] = sweep.replications
    atomic_write_text(path, json.dumps(document))
    return path


def load_sweep(path):
    """Rebuild a :class:`SweepResult` from :func:`save_sweep` output.

    The experiment config is resolved from the current registry by id;
    an unknown id (e.g. a renamed preset) or recorded ``params`` that
    differ from the preset's (a sweep run with overlaid fields) are
    errors rather than results labelled with the wrong parameters.
    Each saved point is paired with its status entry and both are
    recorded through :meth:`SweepResult.record_replicate`, the write
    path the runner and checkpoint restore share. Documents written
    before ``params`` was recorded load without that check; documents
    written before per-point statuses were recorded are refused.
    """
    with open(path) as f:
        document = json.load(f)
    if document.get("format") != FORMAT:
        raise ValueError(
            f"{path}: not a saved sweep (format "
            f"{document.get('format')!r})"
        )
    configs = experiment_configs()
    experiment_id = document["experiment_id"]
    if experiment_id not in configs:
        raise ValueError(
            f"{path}: unknown experiment {experiment_id!r}; "
            f"known: {sorted(configs)}"
        )
    config = configs[experiment_id]
    differing = params_differences(
        document["params"], config.params
    ) if "params" in document else []
    if differing:
        raise ValueError(
            f"{path}: the sweep ran with params that differ from the "
            f"{experiment_id!r} preset in {', '.join(differing)}; "
            f"reloading it would label its results with the preset's"
        )
    if "statuses" not in document:
        raise ValueError(
            f"{path}: saved before per-point statuses were recorded; "
            f"cannot be reloaded, start fresh"
        )
    run = RunConfig(**document["run"])
    sweep = SweepResult(
        config=config, run=run,
        replications=document.get("replications", 1),
    )
    sweep.wall_seconds = document.get("wall_seconds", 0.0)
    points = {
        (point["algorithm"], point["mpl"], point.get("rep", 0)): point
        for point in document["points"]
    }
    for entry in document["statuses"]:
        key = (entry["algorithm"], entry["mpl"], entry.get("rep", 0))
        point = points.pop(key, None)
        result = None if point is None else _rebuild_result(
            key[0], key[1], point["series"], point.get("totals", {}),
            config, run, diagnostics=point.get("diagnostics"),
        )
        sweep.record_replicate(*key, result, _status_from_document(entry))
    if points:
        raise ValueError(
            f"{path}: points without a status entry: {sorted(points)}"
        )
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
    """Decode a checkpoint's header line and check its format.

    Raises :class:`CheckpointMismatchError` for an older-format
    checkpoint (it cannot prove which parameters it ran under) or a
    file that is no checkpoint at all, and
    :class:`CheckpointCorruptError` when the line cannot be read.
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


class SweepCheckpoint:
    """Append-only per-point checkpoint of one sweep (JSONL + CRC).

    Line 1 is a header binding the file to (experiment id, run config,
    replications, canonical params); each further line records one
    completed point — its status always, its measurement payload when
    it succeeded.  Every line carries a
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
        return os.path.exists(self.path)

    def _header(self):
        return {
            "format": CHECKPOINT_FORMAT,
            "experiment_id": self.config.experiment_id,
            "run": asdict(self.run),
            "replications": self.replications,
            "params": self.config.params.canonical(),
        }

    def start_fresh(self):
        """Atomically (re)create the file holding only the header line."""
        atomic_write_text(self.path, encode_checkpoint_line(self._header()))

    def record(self, algorithm, mpl, result, status, rep=0):
        """Append one completed point (result is None for failures).

        ``rep`` is the replication index; 0 is omitted from the line,
        so non-replicated checkpoints stay byte-identical to the
        pre-replication layout.
        """
        line = {
            "algorithm": algorithm,
            "mpl": mpl,
            "status": _status_document(status),
        }
        if rep:
            line["rep"] = rep
        if result is not None:
            line.update(_point_payload(result))
        with open(self.path, "a") as f:
            f.write(encode_checkpoint_line(line))
            f.flush()
            _fsync(f.fileno())

    def _check_header(self, header):
        """Raise CheckpointMismatchError unless the header matches.

        The error names every differing field: ``experiment_id``,
        ``run``, ``replications`` or a :class:`SimulationParameters`
        field.
        """
        expected = self._header()
        differing = [
            key for key in ("experiment_id", "run", "replications")
            if header.get(key) != expected[key]
        ]
        differing += params_differences(
            header.get("params") or {}, self.config.params
        )
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
        count and parameters match this sweep exactly — resuming
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
        with open(self.path, "rb") as f:
            text = f.read().decode("utf-8", errors="replace")
        lines = text.splitlines(keepends=True)
        if not lines:
            return 0
        self._check_header(read_checkpoint_header(self.path, lines[0]))
        valid_bytes = len(lines[0].encode("utf-8"))
        restored = 0
        for raw in lines[1:]:
            # A line without its newline is a torn tail by definition:
            # even if its content decodes, appending after it would
            # merge records, so the salvage stops before it.
            if not raw.endswith("\n"):
                break
            try:
                point = decode_checkpoint_line(raw)
            except ValueError:
                break
            algorithm, mpl = point["algorithm"], point["mpl"]
            rep = point.get("rep", 0)
            status = _status_from_document(point["status"])
            result = None
            if "series" in point:
                result = _rebuild_result(
                    algorithm, mpl, point["series"],
                    point.get("totals", {}), self.config, self.run,
                    diagnostics=point.get("diagnostics"),
                )
            sweep.record_replicate(algorithm, mpl, rep, result, status)
            restored += 1
            valid_bytes += len(raw.encode("utf-8"))
        self.salvage_dropped = max(0, len(lines) - 1 - restored)
        if repair and self.salvage_dropped:
            with open(self.path, "r+b") as f:
                f.truncate(valid_bytes)
                _fsync(f.fileno())
        return restored


def verify_checkpoint(path):
    """Read-only integrity audit of a checkpoint file.

    Returns a report dict: ``ok`` (every line valid), ``format``,
    ``experiment_id``, ``replications`` and the params ``fingerprint``
    from the header (None when the header is unreadable or not
    current-format), ``point_lines``, ``valid_points`` (the salvageable
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
        "point_lines": 0,
        "valid_points": 0,
        "first_corrupt_line": None,
        "detail": None,
    }
    try:
        with open(path, "rb") as f:
            text = f.read().decode("utf-8", errors="replace")
    except OSError as error:
        report["detail"] = str(error)
        return report
    lines = text.splitlines(keepends=True)
    if not lines:
        report["detail"] = "empty file (no header line)"
        return report
    try:
        header = read_checkpoint_header(path, lines[0])
    except CheckpointCorruptError as error:
        report["first_corrupt_line"] = 1
        report["detail"] = str(error)
        return report
    except CheckpointMismatchError as error:
        report["detail"] = str(error)
        return report
    report["format"] = header["format"]
    report["experiment_id"] = header.get("experiment_id")
    report["replications"] = header.get("replications")
    report["fingerprint"] = canonical_fingerprint(header.get("params"))
    report["point_lines"] = len(lines) - 1
    for number, raw in enumerate(lines[1:], start=2):
        if not raw.endswith("\n"):
            report["first_corrupt_line"] = number
            report["detail"] = "torn trailing line (no newline)"
            return report
        try:
            decode_checkpoint_line(raw)
        except ValueError as error:
            report["first_corrupt_line"] = number
            report["detail"] = str(error)
            return report
        report["valid_points"] += 1
    report["ok"] = True
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

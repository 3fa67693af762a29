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

Crash safety (format v2):

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

Legacy v1 checkpoints (no CRC suffixes) still load; their lines are
validated by JSON decoding alone.
"""

import binascii
import json
import os
from dataclasses import asdict

from repro.core import RunConfig
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

#: Format marker of the incremental checkpoint file (v2 = CRC lines).
CHECKPOINT_FORMAT = "repro-sweep-checkpoint-v2"

#: Older checkpoint formats load_into still accepts (without CRCs).
LEGACY_CHECKPOINT_FORMATS = ("repro-sweep-checkpoint-v1",)

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


def decode_checkpoint_line(raw, require_crc=True):
    """Parse one checkpoint line, verifying its CRC32 suffix.

    Raises ``ValueError`` on a CRC mismatch, undecodable JSON, or (with
    ``require_crc``) a missing suffix. ``require_crc=False`` accepts
    bare JSON lines — the legacy v1 layout.
    """
    raw = raw.rstrip("\n")
    text, separator, suffix = raw.rpartition(CRC_SEPARATOR)
    if not separator:
        if require_crc:
            raise ValueError("checkpoint line has no CRC32 suffix")
        return json.loads(raw)
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

    The write is atomic: a kill mid-save leaves any previous file at
    ``path`` exactly as it was.
    """
    if sweep.replications == 1:
        # The historical layout, byte-identical to earlier versions
        # (and correct for hand-assembled sweeps that only populate
        # ``results``/``statuses``).
        points = [
            {
                "algorithm": algorithm,
                "mpl": mpl,
                **_point_payload(result),
            }
            for (algorithm, mpl), result in sorted(sweep.results.items())
        ]
        statuses = [
            {
                "algorithm": algorithm,
                "mpl": mpl,
                **_status_document(status),
            }
            for (algorithm, mpl), status in sorted(sweep.statuses.items())
        ]
    else:
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
    an unknown id (e.g. a renamed preset) is an error rather than a
    silent mismatch.  Documents written before per-point statuses
    existed load with an empty status map.
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
    run = RunConfig(**document["run"])
    sweep = SweepResult(
        config=config, run=run,
        replications=document.get("replications", 1),
    )
    sweep.wall_seconds = document.get("wall_seconds", 0.0)
    for point in document["points"]:
        algorithm, mpl = point["algorithm"], point["mpl"]
        rep = point.get("rep", 0)
        result = _rebuild_result(
            algorithm, mpl, point["series"],
            point.get("totals", {}), config, run,
            diagnostics=point.get("diagnostics"),
        )
        sweep.replicates.setdefault((algorithm, mpl), {})[rep] = result
        if rep == 0:
            sweep.results[(algorithm, mpl)] = result
    for entry in document.get("statuses", []):
        pair = (entry["algorithm"], entry["mpl"])
        status = _status_from_document(entry)
        sweep.replicate_statuses[(*pair, entry.get("rep", 0))] = status
        if sweep.replications == 1:
            sweep.statuses[pair] = status
    if sweep.replications != 1:
        for (algorithm, mpl, _) in list(sweep.replicate_statuses):
            sweep.statuses[(algorithm, mpl)] = (
                sweep._aggregate_status((algorithm, mpl))
            )
    return sweep


class SweepCheckpoint:
    """Append-only per-point checkpoint of one sweep (JSONL + CRC).

    Line 1 is a header binding the file to (experiment id, run config);
    each further line records one completed point — its status always,
    its measurement payload when it succeeded.  Every line carries a
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

    def _faults_signature(self):
        faults = getattr(self.config.params, "faults", None)
        return None if faults is None else faults.describe()

    def _resource_model(self):
        return getattr(self.config.params, "resource_model", "classic")

    def _topology(self):
        """The multi-site topology this sweep binds.

        Matches the legacy default for headers written before the
        distributed tier existed: every old checkpoint was implicitly
        a one-node run with the atomic commit point.
        """
        params = self.config.params
        return {
            "nodes": getattr(params, "nodes", 1),
            "network_delay": getattr(params, "network_delay", 0.0),
            "replication_factor": getattr(params, "replication_factor", 1),
            "commit_protocol": getattr(
                params, "commit_protocol", "single_site"
            ),
        }

    def _workload_model(self):
        """The resolved workload-model identity this sweep binds.

        Resolved (not the raw field) so the legacy
        ``arrival_mode="open"`` spelling and an explicit
        ``workload_model="open_poisson"`` bind identically; the
        normalized spec rides along because two grid points differing
        only in spec draw different workloads.
        """
        from repro.workloads import resolve_workload_model

        params = self.config.params
        name = resolve_workload_model(params)
        spec = getattr(params, "workload_spec", None)
        if spec is None:
            return name
        # A flat string, so the identity JSON-round-trips exactly
        # (tuples would come back as lists and spuriously mismatch).
        return name + " " + json.dumps(spec)

    def start_fresh(self):
        """Atomically (re)create the file holding only the header line."""
        header = {
            "format": CHECKPOINT_FORMAT,
            "experiment_id": self.config.experiment_id,
            "run": asdict(self.run),
            "faults": self._faults_signature(),
            "resource_model": self._resource_model(),
            "workload_model": self._workload_model(),
            "topology": self._topology(),
            "replications": self.replications,
        }
        atomic_write_text(self.path, encode_checkpoint_line(header))

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
        """Raise CheckpointMismatchError unless the header matches."""
        header_format = header.get("format")
        if (header_format != CHECKPOINT_FORMAT
                and header_format not in LEGACY_CHECKPOINT_FORMATS):
            raise CheckpointMismatchError(
                f"{self.path}: not a sweep checkpoint "
                f"(format {header_format!r})"
            )
        if header.get("experiment_id") != self.config.experiment_id:
            raise CheckpointMismatchError(
                f"{self.path}: checkpoint is for experiment "
                f"{header.get('experiment_id')!r}, not "
                f"{self.config.experiment_id!r}"
            )
        if header.get("run") != asdict(self.run):
            raise CheckpointMismatchError(
                f"{self.path}: checkpoint run configuration "
                f"{header.get('run')!r} does not match {asdict(self.run)!r}"
            )
        if header.get("faults") != self._faults_signature():
            raise CheckpointMismatchError(
                f"{self.path}: checkpoint fault injection "
                f"{header.get('faults')!r} does not match "
                f"{self._faults_signature()!r}"
            )
        # Checkpoints written before resource models existed carry no
        # key; they were all implicitly classic runs.
        if header.get("resource_model", "classic") != self._resource_model():
            raise CheckpointMismatchError(
                f"{self.path}: checkpoint resource model "
                f"{header.get('resource_model', 'classic')!r} does not "
                f"match {self._resource_model()!r}"
            )
        # Checkpoints written before the distributed tier existed carry
        # no key; they were all implicitly single-node, single-site.
        legacy_topology = {
            "nodes": 1, "network_delay": 0.0,
            "replication_factor": 1, "commit_protocol": "single_site",
        }
        if header.get("topology", legacy_topology) != self._topology():
            raise CheckpointMismatchError(
                f"{self.path}: checkpoint topology "
                f"{header.get('topology', legacy_topology)!r} does not "
                f"match {self._topology()!r}; a sweep never resumes "
                f"under a different node layout or commit protocol"
            )
        # Checkpoints written before workload models existed carry no
        # key; they were all implicitly the paper's closed model.
        if (header.get("workload_model", "closed_classic")
                != self._workload_model()):
            raise CheckpointMismatchError(
                f"{self.path}: checkpoint workload model "
                f"{header.get('workload_model', 'closed_classic')!r} "
                f"does not match {self._workload_model()!r}; a sweep "
                f"never resumes under a different arrival process"
            )
        if header.get("replications", 1) != self.replications:
            raise CheckpointMismatchError(
                f"{self.path}: checkpoint has "
                f"{header.get('replications', 1)} replication(s) per "
                f"point, the resuming sweep wants {self.replications}; "
                f"replications define the trajectory segmentation, so "
                f"they must match exactly"
            )
        # Headers written while sweeps had two execution lanes carry a
        # "backend". Results were identical across lanes, retries were
        # not: the "classic" lane reseeded retried replications one by
        # one, where every sweep now reseeds the whole point. Those
        # retry rules coincide only for "batched" headers and for
        # single-replication sweeps.
        backend = header.get("backend")
        if backend not in (None, "batched") and self.replications != 1:
            raise CheckpointMismatchError(
                f"{self.path}: checkpoint header field 'backend' is "
                f"{backend!r}; a {backend!r} sweep with "
                f"{self.replications} replications per point retried "
                f"replications one by one, so it cannot be resumed "
                f"under whole-point retries; start a fresh checkpoint"
            )

    def load_into(self, sweep, repair=True):
        """Restore recorded points into ``sweep``; returns their count.

        Raises :class:`CheckpointMismatchError` unless the header's
        experiment id and run configuration match this sweep exactly —
        resuming replays points verbatim, so a mismatch would silently
        mix results from different settings — and
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
        try:
            header = decode_checkpoint_line(lines[0], require_crc=False)
        except ValueError as error:
            raise CheckpointCorruptError(
                f"{self.path}: checkpoint header is corrupt ({error}); "
                f"nothing is salvageable without it — delete the file "
                f"or re-run without --resume"
            ) from None
        self._check_header(header)
        require_crc = header.get("format") == CHECKPOINT_FORMAT
        valid_bytes = len(lines[0].encode("utf-8"))
        restored = 0
        for raw in lines[1:]:
            # A line without its newline is a torn tail by definition:
            # even if its content decodes, appending after it would
            # merge records, so the salvage stops before it.
            if not raw.endswith("\n"):
                break
            try:
                point = decode_checkpoint_line(
                    raw, require_crc=require_crc
                )
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

    Returns a report dict: ``ok`` (every line valid), ``format`` and
    ``experiment_id`` from the header (None when the header is
    unreadable), ``point_lines``, ``valid_points`` (the salvageable
    prefix), ``first_corrupt_line`` (1-based line number, None when
    clean) and ``detail`` describing the first problem found. Never
    modifies the file.
    """
    report = {
        "path": path,
        "ok": False,
        "format": None,
        "experiment_id": None,
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
        header = decode_checkpoint_line(lines[0], require_crc=False)
        report["format"] = header.get("format")
        report["experiment_id"] = header.get("experiment_id")
    except ValueError as error:
        report["first_corrupt_line"] = 1
        report["detail"] = f"header: {error}"
        return report
    if (report["format"] != CHECKPOINT_FORMAT
            and report["format"] not in LEGACY_CHECKPOINT_FORMATS):
        report["detail"] = (
            f"not a sweep checkpoint (format {report['format']!r})"
        )
        return report
    require_crc = report["format"] == CHECKPOINT_FORMAT
    report["point_lines"] = len(lines) - 1
    for number, raw in enumerate(lines[1:], start=2):
        if not raw.endswith("\n"):
            report["first_corrupt_line"] = number
            report["detail"] = "torn trailing line (no newline)"
            return report
        try:
            decode_checkpoint_line(raw, require_crc=require_crc)
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

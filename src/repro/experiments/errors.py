"""Structured error taxonomy for resilient experiment execution.

Everything the hardened sweep runner can report sits under
:class:`ExperimentError`, so callers distinguish "this sweep point went
bad" (catchable, degradable) from programming errors (which propagate).

Hierarchy::

    ExperimentError
    ├── PointExecutionError          one (algorithm, mpl) point went bad
    │   ├── SimulationStalledError   no commits for N simulated seconds
    │   ├── PointDeadlineExceeded    wall-clock budget exhausted
    │   ├── PointCancelledError      hung worker cancelled by the parent
    │   └── WorkerCrashError         worker process died mid-point
    └── CheckpointMismatchError      checkpoint belongs to another sweep
        └── CheckpointCorruptError   checkpoint header unreadable

Every class carries a ``severity`` — the supervision policy knob:

* ``"transient"`` — retrying the point with a fresh seed may succeed
  (stalls, deadline trips, crashed/cancelled workers). The runner's
  retry-with-backoff loop only ever consumes transient errors.
* ``"permanent"`` — retrying the same inputs cannot help (mismatched
  or corrupt checkpoints, bad configuration); surfaced immediately.
* ``"fatal"`` — the harness itself is compromised (used by invariant
  violations, which subclass ``AssertionError`` precisely so no retry
  or degradation path can swallow them).

:func:`error_severity` classifies arbitrary exceptions under the same
scheme so the runner can make one policy decision per failure.
"""

__all__ = [
    "ExperimentError",
    "PointExecutionError",
    "SimulationStalledError",
    "PointDeadlineExceeded",
    "PointCancelledError",
    "WorkerCrashError",
    "CheckpointMismatchError",
    "CheckpointCorruptError",
    "error_severity",
    "SEVERITIES",
]

#: The closed set of severity labels.
SEVERITIES = ("transient", "permanent", "fatal")


class ExperimentError(Exception):
    """Base class for experiment-execution failures."""

    #: Retry policy class attribute; see the module docstring.
    severity = "permanent"


class PointExecutionError(ExperimentError):
    """One sweep point failed (watchdog trip or simulation pathology)."""

    severity = "transient"


class SimulationStalledError(PointExecutionError):
    """The livelock watchdog tripped: no commits for too long.

    Raised when a run produces no commit for ``stall_timeout``
    *simulated* seconds — the signature of a livelocked or pathological
    configuration (e.g. a CC algorithm that blocks every transaction
    forever while the clock idles forward on think-time events).
    """

    def __init__(self, stalled_for, simulated_time, commits):
        super().__init__(
            f"no commits for {stalled_for:.1f} simulated seconds "
            f"(t={simulated_time:.1f}, {commits} commits so far)"
        )
        self.stalled_for = stalled_for
        self.simulated_time = simulated_time
        self.commits = commits


class PointDeadlineExceeded(PointExecutionError):
    """One sweep point exceeded its wall-clock budget."""

    def __init__(self, elapsed, deadline):
        super().__init__(
            f"point exceeded its wall-clock deadline: "
            f"{elapsed:.4g}s elapsed > {deadline:.4g}s allowed"
        )
        self.elapsed = elapsed
        self.deadline = deadline


class PointCancelledError(PointExecutionError):
    """A parallel sweep point was cancelled by the parent's backstop.

    The in-worker watchdogs normally fail a bad point from inside the
    worker; this error covers the case they cannot — a worker wedged so
    hard it never reaches another batch boundary (a C-level hang, a
    livelocked event loop).  The parent terminates the worker process
    and records the point ``failed`` with this error's text.
    """

    def __init__(self, algorithm, mpl, backstop):
        super().__init__(
            f"point ({algorithm}, mpl={mpl}) cancelled: no sweep "
            f"progress within the {backstop:.4g}s parent backstop; "
            "its worker process was terminated"
        )
        self.algorithm = algorithm
        self.mpl = mpl
        self.backstop = backstop


class WorkerCrashError(PointExecutionError):
    """A sweep worker process died (segfault, OOM kill, ...).

    Carries the traceback text the executor observed, so the failure
    survives into ``PointStatus.error`` and the checkpoint instead of
    evaporating with the process.
    """

    def __init__(self, algorithm, mpl, traceback_text):
        super().__init__(
            f"point ({algorithm}, mpl={mpl}) lost: its worker process "
            f"crashed ({traceback_text.strip().splitlines()[-1]})"
        )
        self.algorithm = algorithm
        self.mpl = mpl
        self.traceback_text = traceback_text


class CheckpointMismatchError(ExperimentError):
    """A checkpoint file does not match the sweep being resumed.

    Resuming replays recorded points verbatim, so the experiment id,
    run configuration, replication count and every parameter must
    match exactly; anything else would silently mix results from
    different settings. Older-format checkpoints, which cannot prove
    their parameters, are refused the same way.
    """


class CheckpointCorruptError(CheckpointMismatchError):
    """A checkpoint's header is unreadable, so nothing is salvageable.

    Point-line corruption is *recoverable* (the loader salvages the
    valid prefix and repairs the file); losing the header line is not —
    the file cannot even be matched to a sweep. Subclasses
    :class:`CheckpointMismatchError` so existing handlers treat both
    the same way: stop and let the operator decide.
    """


def error_severity(error):
    """Classify an exception under the transient/permanent/fatal scheme.

    ``ExperimentError`` subclasses declare their own ``severity``.
    Outside the taxonomy, ``AssertionError`` (which includes invariant
    violations) and the interpreter-level emergencies are fatal;
    anything else is treated as permanent — an unknown error is not a
    license to retry.
    """
    if isinstance(error, ExperimentError):
        return error.severity
    if isinstance(error, (AssertionError, MemoryError, SystemExit,
                          KeyboardInterrupt)):
        return "fatal"
    return "permanent"

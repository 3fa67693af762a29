"""Sweep runner: every point of one sweep's grid.

Each grid point (:class:`~repro.experiments.configs.GridPoint`) has
its own key, params and algorithm: an experiment's ``(algorithm,
mpl)`` grid over one preset, or a finding's fixed arms.

The runner is *resilient*: a sweep no longer dies on its first bad
point.  Each point can be supervised by a wall-clock
deadline and a simulated-time livelock watchdog, retried with a
reseeded RNG, and checkpointed to disk as soon as it completes, so a
killed multi-hour sweep resumes where it stopped and a pathological
point degrades the sweep to partial results instead of losing it.

The runner is also *parallel*: ``run_sweep(..., workers=N)`` fans the
point grid out over a :class:`concurrent.futures.ProcessPoolExecutor`
(every point is an independent closed-queuing simulation, so the grid
is embarrassingly parallel).  The parent process stays the single
checkpoint writer and progress reporter; workers only simulate.  Seeds
are derived from ``run.seed`` and the grid key alone — never from
submission or completion order — so a sweep's results are identical
for any worker count.
"""

import hashlib
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, NamedTuple, Optional, Tuple

from repro.cc.registry import algorithm_names
from repro.core import RestartLivelockError, RunConfig
from repro.experiments.configs import ExperimentConfig
from repro.experiments.errors import (
    PointCancelledError,
    PointDeadlineExceeded,
    PointExecutionError,
    SimulationStalledError,
)
# The fused executor is called through its module, so a wrapper
# installed on ``repro.fastlane.backend`` (benchmark tracing, tests)
# sees every call.
from repro.fastlane import backend as fastlane
from repro.fastlane.tapes import TapeStore
from repro.obs import JsonlSink, TimeSeriesSampler

#: Run controls sized for a laptop. The paper used 20 batches with a
#: "large batch time" on a VAX cluster; these defaults produce the same
#: qualitative curves in minutes. Pass ``RunConfig(batches=20,
#: batch_time=120.0)`` (or larger) for publication-grade intervals.
DEFAULT_RUN = RunConfig(batches=6, batch_time=25.0, warmup_batches=1)

#: An even quicker profile for smoke tests and pytest-benchmark runs.
QUICK_RUN = RunConfig(batches=3, batch_time=12.0, warmup_batches=1)

# Per-point outcomes (stable strings; they appear in checkpoints).
STATUS_OK = "ok"
STATUS_RETRIED = "retried"
STATUS_FAILED = "failed"


#: Extra wall-clock slack the parent grants a parallel sweep beyond the
#: worst case its in-worker deadlines allow, before it declares a
#: worker wedged (see :func:`_hard_backstop`).
BACKSTOP_GRACE = 30.0

#: Capped exponential backoff between a point's retry attempts:
#: ``min(CAP, BASE * 2**(attempt-1)) * jitter`` with jitter in
#: [0.5, 1.5) derived deterministically from the attempt's seed (see
#: :func:`retry_backoff`). Small base — retries usually follow
#: simulation pathologies, not resource contention — but the cap keeps
#: a long retry ladder from sleeping unboundedly.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 30.0

#: Consecutive worker-pool crashes (BrokenProcessPool) a parallel sweep
#: absorbs by restarting the pool before it degrades the remaining
#: points to sequential in-process execution.
MAX_POOL_RESTARTS = 3

#: Seam for the supervision sleeps (tests patch this; see
#: :func:`retry_backoff`). Never called on a point's first attempt, so
#: the default zero-retry path has identical timing to before.
_sleep = time.sleep


def point_seed(seed, key, attempt):
    """The RNG seed of one attempt of the grid point ``key``.

    Attempt 0 uses the sweep seed unchanged for *every* point — the
    common-random-numbers discipline the sequential runner has always
    used (shared randomness across points and replications
    reduces the variance of their differences, which is what the
    paper's curves compare).  Replications don't need seeds of their
    own because a replication is a *segment* of the point's trajectory,
    selected by extending the warmup, not by reseeding (see
    :func:`run_sweep`); a retry reseeds the whole point, every
    replication with it.

    Retry attempts (``attempt >= 1``) take the first 8 bytes of
    ``sha256(seed:<key parts>:attempt)`` (``seed:algorithm:mpl:attempt``
    for an experiment's point) — a full-width stable hash of the whole
    grid key, so distinct points cannot share an attempt seed, even
    finding arms that share an algorithm and an mpl.  (An earlier
    scheme offset by ``crc32(key) % 7919``, which
    collides whenever two grid keys are congruent modulo the stride —
    colliding points replayed identical retry trajectories, silently
    correlating their results.)

    The value is a pure function of ``(seed, key, attempt)``:
    submission order, completion order and worker count
    never enter, which is what makes parallel sweeps reproducible.
    Negative attempts are a caller bug and raise ``ValueError`` (an
    earlier version silently hashed them into valid-looking seeds).
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    if attempt == 0:
        return seed
    text = ":".join([str(seed), *map(str, key), str(attempt)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def retry_backoff(seed, key, attempt):
    """Seconds to wait before retry ``attempt`` of one grid point.

    Capped exponential with *deterministic* jitter: the jitter factor
    (uniform-ish in [0.5, 1.5)) is derived from
    :func:`point_seed` — a pure function of the grid key and attempt —
    so two runs of the same sweep back off identically, and distinct
    points retrying after a shared failure burst don't thunder in
    lockstep. Attempt 0 (the initial try, the only attempt a clean
    point ever makes) returns 0.0: first attempts never wait.
    Negative attempts raise ``ValueError`` (an earlier version
    returned 0.0 for them, hiding caller bugs as missing backoffs).
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    if attempt == 0:
        return 0.0
    base = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (attempt - 1)))
    jitter = 0.5 + (point_seed(seed, key, attempt) % 1024) / 1024.0
    return min(BACKOFF_CAP, base * jitter)


@dataclass(frozen=True)
class PointTrace:
    """Per-point event-trace request for a sweep.

    Each point of an experiment's grid streams its instrumentation-bus
    events to
    ``<directory>/<experiment>.<algorithm>.mpl<NNN>.jsonl`` through a
    :class:`~repro.obs.JsonlSink` — one file per point, written once
    along the point's whole trajectory, so replication ``r``'s trace
    is the file's first ``diagnostics["trace"]["events"]`` lines (as
    recorded in ``r``'s diagnostics).  ``kinds`` restricts the
    subscribed event kinds (None = every kind, including high-volume
    resource and CC-grant events).  Frozen and built from plain values
    so it pickles cleanly into sweep worker processes.
    """

    directory: str
    kinds: Optional[Tuple[str, ...]] = None

    def point_path(self, experiment_id, algorithm, mpl):
        return os.path.join(
            self.directory,
            f"{experiment_id}.{algorithm}.mpl{mpl:03d}.jsonl",
        )


def _point_subscribers(experiment_id, key, timeseries, trace):
    """Fresh observability subscribers for one point attempt.

    Built per attempt — never reused — so a retried point starts from
    empty series and a truncated trace file (JsonlSink opens with mode
    ``"w"``).  Returns ``(sampler, sink, subscribers_tuple)``.
    """
    sampler = None
    sink = None
    subscribers = []
    if timeseries is not None:
        sampler = TimeSeriesSampler(interval=timeseries)
        subscribers.append(sampler)
    if trace is not None:
        sink = JsonlSink(
            trace.point_path(experiment_id, *key),
            kinds=trace.kinds,
        )
        subscribers.append(sink)
    return sampler, sink, tuple(subscribers)


def _point_diagnostics(timeseries, sampler, sink):
    """The JSON-serializable observability payload, as of now.

    Read at each replication's end boundary, so the series holds the
    rows sampled so far and the event count is the trace's prefix.
    """
    diagnostics = {}
    if sampler is not None:
        diagnostics["timeseries"] = {
            "interval": timeseries,
            "series": sampler.series(),
        }
    if sink is not None:
        diagnostics["trace"] = {
            "path": sink.path,
            "events": sink.events_written,
        }
    return diagnostics or None


@dataclass
class PointStatus:
    """How one point of a sweep went."""

    #: One of STATUS_OK / STATUS_RETRIED / STATUS_FAILED.
    status: str
    #: Simulation attempts consumed (1 = clean first try).
    attempts: int = 1
    #: Message of the last failure seen (also set on retried successes).
    error: Optional[str] = None
    #: Wall-clock spent on this point, all attempts included.
    wall_seconds: float = 0.0

    @property
    def completed(self):
        """True when the point produced a usable result."""
        return self.status in (STATUS_OK, STATUS_RETRIED)


@dataclass
class SweepResult:
    """All simulation results of one sweep, keyed by grid key.

    ``results`` holds the successful points only; ``statuses`` records
    the outcome of every attempted point, so partial sweeps stay
    self-describing (a missing key is distinguishable from a failed
    one). An experiment's keys are ``(algorithm, mpl)``, which the
    helpers below (``result``, ``series``, ``peak``, ...) take apart.

    With ``replications > 1`` every grid point is measured
    ``replications`` times (replication ``r`` is the ``r``-th
    ``run.batches``-sized segment of one deterministic trajectory; see
    :func:`run_sweep`).  ``results`` holds each point's replication 0
    and ``statuses`` the aggregate over its replications, so reports
    and figures read every sweep the same way; every replication lives
    in ``replicates``/``replicate_statuses``.
    """

    config: object
    run: RunConfig
    #: key -> SimulationResult (replication 0).
    results: Dict[Tuple, object] = field(default_factory=dict)
    #: key -> PointStatus (every attempted point; the aggregate over
    #: its replications when replications > 1).
    statuses: Dict[Tuple, PointStatus] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: Replications requested per grid point (1 = classic behavior).
    replications: int = 1
    #: key -> {rep -> SimulationResult} (successes only).
    replicates: Dict[Tuple, Dict[int, object]] = field(
        default_factory=dict
    )
    #: (*key, rep) -> PointStatus (every attempted replication; the
    #: per-rep detail behind ``statuses``).
    replicate_statuses: Dict[Tuple, PointStatus] = field(
        default_factory=dict
    )

    def result(self, algorithm, mpl):
        return self.results[(algorithm, mpl)]

    def status(self, algorithm, mpl):
        """The PointStatus of one attempted point (KeyError if never run)."""
        return self.statuses[(algorithm, mpl)]

    def record_replicate(self, key, rep, result, status):
        """Fold one finished replication into the sweep's containers.

        The single write path shared by the runner and checkpoint
        restore, so the replication-0 aliasing
        into ``results``/``statuses`` and the per-point aggregation
        cannot drift between them.
        """
        self.replicate_statuses[(*key, rep)] = status
        if result is not None:
            self.replicates.setdefault(key, {})[rep] = result
            if rep == 0:
                self.results[key] = result
        if self.replications == 1:
            self.statuses[key] = status
        else:
            self.statuses[key] = self._aggregate_status(key)

    def _aggregate_status(self, key):
        """One PointStatus summarizing every recorded rep of ``key``."""
        entries = [
            status
            for rep_key, status in sorted(self.replicate_statuses.items())
            if rep_key[:-1] == key
        ]
        worst = STATUS_OK
        if any(s.status == STATUS_FAILED for s in entries):
            worst = STATUS_FAILED
        elif any(s.status == STATUS_RETRIED for s in entries):
            worst = STATUS_RETRIED
        errors = [s.error for s in entries if s.error is not None]
        return PointStatus(
            status=worst,
            attempts=sum(s.attempts for s in entries),
            error=errors[-1] if errors else None,
            wall_seconds=sum(s.wall_seconds for s in entries),
        )

    def failed_points(self):
        """Sorted keys of the points that exhausted their retries."""
        return sorted(
            key for key, status in self.statuses.items()
            if status.status == STATUS_FAILED
        )

    @property
    def complete(self):
        """True when no attempted point failed."""
        return not self.failed_points()

    def series(self, metric, algorithm):
        """[(mpl, mean, ci), ...] of ``metric`` for one algorithm."""
        points = []
        for (alg, mpl), result in sorted(self.results.items(),
                                         key=lambda kv: kv[0][1]):
            if alg != algorithm:
                continue
            points.append(
                (mpl, result.mean(metric), result.interval(metric))
            )
        return points

    def peak(self, metric, algorithm):
        """(mpl, value) of the best observed ``metric`` for an algorithm."""
        series = self.series(metric, algorithm)
        if not series:
            raise KeyError(f"no data for {algorithm}")
        mpl, value, _ = max(series, key=lambda point: point[1])
        return mpl, value

    def algorithms(self):
        return sorted({alg for alg, _ in self.results})

    def mpls(self):
        return sorted({mpl for _, mpl in self.results})


class _PointWatchdog:
    """Per-point supervision, consulted after every simulation batch.

    Two independent tripwires:

    * **wall-clock deadline** — real seconds since the attempt started;
    * **livelock watchdog** — *simulated* seconds since the last commit
      (a stalled model keeps draining think-time events, so its clock
      advances while throughput flatlines; catching that needs the
      simulated axis, not the wall one).
    """

    def __init__(self, deadline=None, stall_timeout=None,
                 clock=time.monotonic):
        self.deadline = deadline
        self.stall_timeout = stall_timeout
        self.clock = clock
        self.started = clock()
        self._last_commits = 0
        self._last_progress_at = 0.0

    def __call__(self, model):
        if self.deadline is not None:
            elapsed = self.clock() - self.started
            if elapsed > self.deadline:
                raise PointDeadlineExceeded(elapsed, self.deadline)
        if self.stall_timeout is not None:
            commits = model.metrics.commits.total
            if commits > self._last_commits:
                self._last_commits = commits
                self._last_progress_at = model.env.now
            elif (model.env.now - self._last_progress_at
                  >= self.stall_timeout):
                raise SimulationStalledError(
                    model.env.now - self._last_progress_at,
                    model.env.now,
                    commits,
                )


def _validate_algorithms(algorithms):
    """Fail fast on anything but registry names and CC factories.

    Every point and every retry builds its algorithm afresh, from its
    name or by calling its factory. A pre-built instance would carry
    its state (timestamps, object tables) from one point into the
    next, and it cannot be sent to worker processes either.
    """
    known = algorithm_names()
    instances = [
        a for a in algorithms if not isinstance(a, str) and not callable(a)
    ]
    if instances:
        raise ValueError(
            "run_sweep takes algorithm names from the registry or CC "
            f"factories, not pre-built instances (got {instances!r}); "
            f"choose from {known}"
        )
    unknown = [
        name for name in algorithms
        if isinstance(name, str) and name not in known
    ]
    if unknown:
        raise ValueError(
            f"unknown concurrency control algorithm(s) "
            f"{sorted(unknown)}; choose from {known}"
        )


class _Point(NamedTuple):
    """One unit of sweep work: a grid point and its pending replications."""

    key: Tuple
    params: object
    #: A registry name or a CC factory (see GridPoint).
    algorithm: object
    #: Replication indexes still to record, ascending.
    reps: Tuple[int, ...]
    #: This point's invariant mode (``"spot"`` already resolved).
    invariants: Optional[str]


@dataclass(frozen=True)
class _PointPlan:
    """The settings every point of one sweep runs under.

    Plain values only, so it pickles into sweep worker processes (a
    :class:`~repro.chaos.ChaosSpec` is a frozen dataclass of plain
    values too — which is how one SIGKILLs a *worker* mid-sweep).
    """

    config: object
    run: RunConfig
    deadline: Optional[float] = None
    stall_timeout: Optional[float] = None
    retries: int = 0
    timeseries: Optional[float] = None
    trace: Optional[PointTrace] = None
    chaos: object = None


def _pending_points(sweep, grid, replications, invariants):
    """The grid points with unrecorded replications, in grid order.

    ``invariants="spot"`` audits the first pending point of each
    algorithm strictly and runs the rest unchecked: the checker's
    invariants are structural (conservation, pairing, exclusivity) or
    hold for every run of a correct algorithm (serializability), so
    one strictly audited trajectory per algorithm catches a broken
    engine or algorithm while the bulk of the sweep keeps the
    observer-free fast path.  Any other mode applies to every point.
    ``noop`` commits non-serializable histories by design, so a strict
    or spot sweep that includes it aborts at its first audited point.
    """
    points = []
    audited = set()
    for key, params, algorithm in grid:
        reps = tuple(
            rep for rep in range(replications)
            if (*key, rep) not in sweep.replicate_statuses
        )
        if not reps:
            continue
        mode = invariants
        if invariants == "spot":
            mode = "off" if algorithm in audited else "strict"
            audited.add(algorithm)
        points.append(_Point(key, params, algorithm, reps, mode))
    return points


def _run_point(plan, point, store, progress=None):
    """Run one grid point's pending replications to their outcomes.

    The unit of work of every sweep: the sequential loop calls it
    inline (``progress`` reports per-attempt failures); parallel
    workers call it via :func:`_point_task` with ``progress``
    disabled, since only the parent talks to the user.  Each attempt
    simulates the point's trajectory once, through its last pending
    replication, and carves every replication from it
    (:func:`~repro.core.simulation.run_point_replications`, called
    through :mod:`repro.fastlane.backend`).
    ``store`` shares workload tapes between the points one process
    runs; every attempt's model reads the tape of its own seed.

    A retry reseeds the *whole point* with
    ``point_seed(seed, key, attempt)``, after
    :func:`retry_backoff` seconds; the first attempt never waits.
    Only supervised failures — watchdog trips and the engine's restart
    livelock detector — are degraded to a failed status; anything else
    is a programming error and propagates.  A strict invariant
    violation is an ``AssertionError`` subclass, so it is never
    degraded either: a broken engine must not be retried into silence.
    ``plan.chaos`` is consulted at the top of every attempt, before
    any simulation work, and a factory algorithm is called afresh for
    every attempt.

    Per-point ``timeseries``/``trace`` subscribers are fresh per
    attempt (a retry starts from empty series and a truncated trace
    file) and observe the whole trajectory; replication ``r`` reports
    the series sampled and the events written up to its end boundary.

    Returns ``[(rep, result, status)]`` over the pending replications;
    ``result`` is None when the point failed.
    """
    config, run = plan.config, plan.run
    key, params, algorithm, reps, invariants = point
    supervised = plan.deadline is not None or plan.stall_timeout is not None
    started = time.perf_counter()
    results = None
    failure = None
    attempts = 0
    for attempt in range(plan.retries + 1):
        attempts += 1
        if attempt > 0:
            delay = retry_backoff(run.seed, key, attempt)
            if delay > 0.0:
                _sleep(delay)
        if plan.chaos is not None:
            plan.chaos.on_point_start(key)
        attempt_run = run if attempt == 0 else run.with_changes(
            seed=point_seed(run.seed, key, attempt)
        )
        watchdog = (
            _PointWatchdog(plan.deadline, plan.stall_timeout)
            if supervised else None
        )
        sampler, sink, subscribers = _point_subscribers(
            config.experiment_id, key, plan.timeseries, plan.trace,
        )
        try:
            results = fastlane.run_point_replications(
                params,
                algorithm if isinstance(algorithm, str) else algorithm(),
                attempt_run, reps[-1] + 1,
                tapes=store,
                batch_callback=watchdog,
                invariants=invariants,
                subscribers=subscribers,
                boundary_diagnostics=partial(
                    _point_diagnostics, plan.timeseries, sampler, sink
                ),
            )
            break
        except (PointExecutionError, RestartLivelockError) as error:
            failure = error
            if progress is not None:
                outcome = (
                    "retrying" if attempt < plan.retries else "giving up"
                )
                progress(
                    f"  {config.experiment_id}: {config.point_name(key)} "
                    f"attempt {attempts} failed ({error}); {outcome}"
                )
        finally:
            if sink is not None:
                sink.close()
    wall = time.perf_counter() - started
    error_text = (
        f"{type(failure).__name__}: {failure}"
        if failure is not None else None
    )
    status = (
        STATUS_FAILED if results is None
        else STATUS_OK if attempts == 1
        else STATUS_RETRIED
    )
    # Every replication of a point shares its attempt history; the
    # wall clock is split evenly so per-point aggregates still sum to
    # the real elapsed time.
    return [
        (
            rep,
            None if results is None else results[rep],
            PointStatus(
                status=status,
                attempts=attempts,
                error=error_text,
                wall_seconds=wall / len(reps),
            ),
        )
        for rep in reps
    ]


#: This worker process's tape store (see :func:`_init_worker`).
_worker_tapes = None


def _init_worker():
    """Pool initializer: one tape store per worker process.

    Tapes never cross processes; the points one worker runs share its
    store, just as the points of a sequential sweep share theirs.
    """
    global _worker_tapes
    _worker_tapes = TapeStore()


def _point_task(plan, point):
    """Worker-process entry point: one point, no parent-side chatter.

    Module-level (picklable) by construction; everything it needs
    travels in its arguments, everything it produces travels back in
    the returned outcomes.  Observability subscribers are constructed
    *inside* the worker (live sinks don't pickle); only the plain-data
    diagnostics ride back on the results.
    """
    return _run_point(plan, point, _worker_tapes)


def _finish_point(sweep, config, point, outcomes, ckpt, progress,
                  counter=""):
    """Record one finished point and report it (parent only)."""
    for rep, result, status in outcomes:
        _record_point(sweep, point.key, rep, result, status, ckpt)
    if progress is None:
        return
    _, result, status = outcomes[0]
    tag = f" [{len(point.reps)} rep(s)]" if point.reps != (0,) else ""
    if result is not None:
        # A result line names the algorithm and the mpl, which is an
        # experiment point's whole key; a finding's arms can share
        # both, so each leads with its own name.
        arm = (
            "" if isinstance(config, ExperimentConfig)
            else f"{config.point_name(point.key)}: "
        )
        progress(
            f"  {counter}{config.experiment_id}: {arm}"
            f"{result.describe()}{tag}"
        )
    else:
        progress(
            f"  {counter}{config.experiment_id}: "
            f"{config.point_name(point.key)}{tag} failed after "
            f"{status.attempts} attempt(s) ({status.error})"
        )


def _hard_backstop(deadline, retries):
    """Parent-side wall-clock budget for "some point must finish".

    The in-worker deadline is checked at batch boundaries, so a worker
    wedged *inside* a batch never trips it.  The parent therefore
    allows the worst case the in-worker supervision permits — every
    attempt running to its full deadline — plus grace, and declares the
    pool hung when no future completes within that window.  Without a
    per-point deadline there is no defensible budget, so there is no
    backstop either.
    """
    if deadline is None:
        return None
    return deadline * (retries + 1) + BACKSTOP_GRACE


def _terminate_workers(executor):
    """Kill a pool's worker processes outright (hung-worker backstop).

    ``ProcessPoolExecutor`` has no public kill switch — ``shutdown``
    waits for running tasks — so this reaches for the process handles.
    A worker wedged in C code would otherwise survive shutdown and
    block interpreter exit on the executor's atexit join.
    """
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except (OSError, ValueError) as error:
            # Best-effort cleanup (the process may already be gone or
            # its handle closed), but never silent: a worker that
            # survives here blocks interpreter exit, so the operator
            # deserves the evidence.
            print(
                f"warning: failed to terminate sweep worker "
                f"pid={getattr(process, 'pid', '?')}: {error}",
                file=sys.stderr, flush=True,
            )


def _run_parallel(sweep, points, plan, workers, progress, ckpt):
    """Submit/drain executor for the pending grid points.

    Whole points are the unit of submission: a worker simulates a
    point's fused trajectory and returns all its replications' outcomes.
    The parent is the only process that touches the checkpoint or the
    progress sink, flushing each point to the checkpoint as its future
    completes, so PR 1's resume semantics survive unchanged (the JSONL
    line order is completion order, which the loader never relied on).

    Returns the points left *unrecorded* because the worker pool broke
    (a worker SIGKILLed or segfaulted poisons the whole
    ``ProcessPoolExecutor``): the supervisor re-runs exactly those —
    with their untouched attempt-0 seeds, so recovery is
    byte-identical to a crash-free sweep. An empty list means the
    drain ran to completion or the hung-worker backstop tripped
    (backstop cancellations are recorded failed, and never-started
    points deliberately left unattempted for ``--resume``).
    """
    total = len(points)
    completed = 0
    backstop = _hard_backstop(plan.deadline, plan.retries)
    executor = ProcessPoolExecutor(
        max_workers=min(workers, total), initializer=_init_worker
    )
    broken = False
    try:
        futures = {}
        unsubmitted = []
        for point in points:
            if broken:
                unsubmitted.append(point)
                continue
            try:
                future = executor.submit(_point_task, plan, point)
            except BrokenProcessPool:
                broken = True
                unsubmitted.append(point)
                continue
            futures[future] = point
        crashed = []
        outstanding = set(futures)
        while outstanding and not broken:
            done, outstanding = wait(
                outstanding, timeout=backstop,
                return_when=FIRST_COMPLETED,
            )
            if not done:
                # Nothing finished inside the backstop window: at
                # least one worker is wedged beyond what the
                # in-worker watchdogs can catch. Cancel what never
                # started (left unattempted, so --resume retries
                # it), fail what was in flight, and kill the pool.
                _cancel_outstanding(
                    sweep, futures, outstanding, backstop, ckpt,
                    progress, plan.config,
                )
                _terminate_workers(executor)
                return []
            for future in done:
                point = futures[future]
                try:
                    outcomes = future.result()
                except BrokenProcessPool:
                    # Don't record anything: a recorded failure would
                    # survive into the checkpoint and a resumed sweep
                    # would keep it, losing the point forever. The
                    # supervisor re-runs it instead.
                    broken = True
                    crashed.append(point)
                    continue
                completed += 1
                _finish_point(
                    sweep, plan.config, point, outcomes, ckpt, progress,
                    counter=f"[{completed}/{total}] ",
                )
        if not broken:
            # Join the idle pool: a manager thread left running races
            # the interpreter's exit hook on its closed wakeup pipe.
            executor.shutdown()
            return []
        unfinished = set(crashed) | set(unsubmitted)
        unfinished.update(futures[future] for future in outstanding)
        _terminate_workers(executor)
        # Original grid order, so the supervisor's re-submission (and
        # any sequential degradation) visits points deterministically.
        return [point for point in points if point in unfinished]
    finally:
        executor.shutdown(wait=False, cancel_futures=True)


def _supervise_parallel(sweep, points, plan, workers, progress, ckpt):
    """Parallel execution with pool-crash supervision.

    Each :func:`_run_parallel` drain that ends in a broken pool hands
    back its unrecorded points; this loop restarts a fresh pool for
    them.  A crash-with-progress resets the streak (the sweep is
    moving; keep the parallelism), while :data:`MAX_POOL_RESTARTS`
    *consecutive* no-progress crashes degrade the remainder to
    sequential in-process execution — returned to the caller, whose
    sequential loop is the degradation path. Returns ``[]`` when the
    parallel drain finished everything.
    """
    remaining = list(points)
    streak = 0
    experiment_id = plan.config.experiment_id
    while remaining:
        before = len(remaining)
        remaining = _run_parallel(
            sweep, remaining, plan, workers, progress, ckpt
        )
        if not remaining:
            return []
        streak = 0 if len(remaining) < before else streak + 1
        if streak >= MAX_POOL_RESTARTS:
            if progress is not None:
                progress(
                    f"  {experiment_id}: worker pool crashed "
                    f"{MAX_POOL_RESTARTS} times without progress; "
                    f"degrading {len(remaining)} remaining point(s) "
                    f"to sequential in-process execution"
                )
            return remaining
        if progress is not None:
            progress(
                f"  {experiment_id}: worker pool crashed; "
                f"restarting it for {len(remaining)} remaining "
                f"point(s)"
            )
    return []


def _cancel_outstanding(sweep, futures, outstanding, backstop, ckpt,
                        progress, config):
    """Backstop trip: fail in-flight points, drop never-started ones."""
    for future in outstanding:
        point = futures[future]
        if future.cancel():
            # Never started; leave it unattempted (no status), so a
            # --resume run knows to simulate it.
            continue
        name = config.point_name(point.key)
        error = PointCancelledError(name, backstop)
        for rep in point.reps:
            status = PointStatus(
                status=STATUS_FAILED,
                attempts=1,
                error=f"PointCancelledError: {error}",
                wall_seconds=backstop / len(point.reps),
            )
            _record_point(sweep, point.key, rep, None, status, ckpt)
        if progress is not None:
            progress(f"  {config.experiment_id}: {name} cancelled ({error})")


def _record_point(sweep, key, rep, result, status, ckpt):
    """Single-writer bookkeeping for one finished replication (parent only).

    The sweep containers and the checkpoint line both carry the
    replication index (omitted from the line when 0).
    """
    sweep.record_replicate(key, rep, result, status)
    if ckpt is not None:
        ckpt.record(key, result, status, rep=rep)


def run_sweep(config, run=None, mpls=None, algorithms=None, seed=None,
              progress=None, deadline=None, stall_timeout=None,
              retries=0, checkpoint=None, resume=False, workers=1,
              timeseries=None, trace=None, invariants=None, chaos=None,
              replications=1):
    """Run every point of ``config``'s grid.

    ``config`` is an :class:`~repro.experiments.configs.ExperimentConfig`
    (its ``(algorithm, mpl)`` grid, which ``mpls``/``algorithms``
    restrict — benchmarks use a subset of the paper's seven mpl points
    to stay fast) or a :class:`~repro.experiments.configs.FixedGrid`
    (fixed points, e.g. a finding's arms; no restriction). Every point
    carries its own params and algorithm: a registry name
    (:func:`~repro.cc.algorithm_names`) or a picklable factory of a CC
    instance. Each point and each retry builds its algorithm afresh,
    and a pre-built instance — whose state would carry from one point
    into the next — raises ``ValueError``. ``progress`` is an
    optional callable invoked with a status line after each point and
    one carrying the sweep's wall time at the end (``print`` and
    logging functions both work).

    ``replications`` measures every grid point that many times.
    Replication ``r`` is defined as the ``r``-th ``run.batches``-sized
    *segment* of the single trajectory seeded by ``run.seed`` — i.e.
    exactly ``run_simulation(..., run.with_changes(warmup_batches=
    run.warmup_batches + r * run.batches))`` — so replications extend
    the trajectory instead of reseeding it (the method of batch means
    applied across replications; common random numbers survive intact
    across algorithms, mpls *and* replications). Replication 0 is
    the result a one-replication sweep produces; every point's
    replication 0 is in ``SweepResult.results``, and all of its
    replications are in ``SweepResult.replicates``.

    Every point is computed the same way: one trajectory of ``warmup +
    R * batches`` batches, simulated once, with all ``R`` replication
    results carved from it
    (:func:`~repro.core.simulation.run_point_replications`, whose
    ``R = 1`` case is ``run_simulation``). Points run under the same seed
    (every first attempt) share one workload tape per process — its
    recorded transaction content, think times and disk picks (see
    :class:`repro.fastlane.TapeStore`).

    ``workers`` selects where the points run:

    * ``1`` (default) — in-process, one point after another.
    * ``N > 1`` — whole points fan out over ``N`` worker processes; the
      parent remains the single checkpoint writer and progress
      reporter.  Results are **identical** to the sequential run for
      the same seeds (per-point seeds derive from ``run.seed`` and the
      grid key, never from scheduling order).
    * ``0`` — shorthand for ``os.cpu_count()``.

    Resilience controls (all off by default, preserving the classic
    all-or-nothing behavior):

    * ``deadline`` — wall-clock seconds allowed per point attempt
      (checked at batch boundaries); exceeding it fails the attempt
      with :class:`PointDeadlineExceeded`.  In parallel mode it also
      arms a parent-side hard backstop: if no point completes within
      ``deadline * (retries + 1) + 30`` seconds, hung workers are
      terminated and their points recorded ``failed``
      (:class:`PointCancelledError`); queued points are left
      unattempted so ``--resume`` picks them up.
    * ``stall_timeout`` — *simulated* seconds without a single commit
      before the attempt fails with :class:`SimulationStalledError`.
    * ``retries`` — extra attempts per point after a supervised
      failure, each reseeding the whole point (every replication with
      it) per :func:`point_seed`. A point that exhausts its attempts
      is recorded as ``failed`` in ``SweepResult.statuses`` and the
      sweep continues.
    * ``checkpoint`` — path of a JSONL checkpoint file; every completed
      point (failed ones included) is flushed to it immediately. With
      ``resume=True`` an existing checkpoint's points are loaded and
      skipped, so only the missing ones simulate; without ``resume`` an
      existing file is truncated and the sweep starts fresh.

    Observability controls (both off by default; attaching them leaves
    every point's summary bit-identical — subscribers only observe):

    * ``timeseries`` — sampling interval in simulated seconds; each
      point runs a :class:`~repro.obs.TimeSeriesSampler` and carries
      the sampled trajectories in ``result.diagnostics`` (persisted by
      checkpoints/save_sweep; export with
      :func:`~repro.experiments.export.write_timeseries_csv`).
      Replication ``r`` carries the rows sampled up to its end.
    * ``trace`` — a :class:`PointTrace` (or a directory path, which
      becomes ``PointTrace(directory)``); each point of an experiment's
      grid streams its instrumentation-bus events to one JSONL file in
      that directory, named by its ``(algorithm, mpl)``.
      Replication ``r`` records the number of events written up to its
      end, so its trace is that prefix of the file.

    Robustness controls:

    * ``invariants`` — ``"strict"``/``"warn"``/``"off"``/None; every
      point attaches an :class:`~repro.obs.InvariantChecker` auditing
      the engine's event stream (None defers to ``REPRO_INVARIANTS``,
      then off). Strict violations raise — they are AssertionErrors,
      exempt from retry/degradation by design. ``"spot"`` audits the
      first point of each algorithm strictly and leaves the rest
      unchecked. The checker includes serial replay, so ``noop`` (the
      calibration baseline with no concurrency control) fails strict
      and spot audits by design; audit it with ``"warn"``.
    * ``chaos`` — a :class:`~repro.chaos.ChaosSpec` of harness-level
      faults (SIGKILL / hang a process at a named grid point, one-shot
      each), consulted at the top of every attempt. Test machinery:
      chaos decides when processes die, never what the model computes.

    Supervision semantics in parallel mode: retry attempts back off
    :func:`retry_backoff` seconds (capped exponential, deterministic
    jitter); a broken worker pool (a worker SIGKILLed, segfaulted or
    OOM-killed poisons the whole executor) is restarted and only the
    *unrecorded* points re-submitted with their original seeds — so a
    crashed-and-recovered sweep is byte-identical to a crash-free one;
    after :data:`MAX_POOL_RESTARTS` consecutive crashes without
    progress the remaining points degrade to sequential in-process
    execution.

    Only supervised failures (watchdog trips and the engine's
    zero-delay restart-livelock detector,
    :class:`~repro.core.RestartLivelockError`) are degraded to
    per-point statuses; configuration errors (unknown algorithm,
    invalid parameters) and genuine programming errors still raise
    immediately.
    """
    run = run or DEFAULT_RUN
    if seed is not None:
        run = run.with_changes(seed=seed)
    if replications < 1:
        raise ValueError(
            f"replications must be >= 1, got {replications}"
        )
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if deadline is not None and deadline <= 0:
        raise ValueError(f"deadline must be > 0, got {deadline}")
    if stall_timeout is not None and stall_timeout <= 0:
        raise ValueError(
            f"stall_timeout must be > 0, got {stall_timeout}"
        )
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    if timeseries is not None and timeseries <= 0:
        raise ValueError(
            f"timeseries interval must be > 0, got {timeseries}"
        )
    if isinstance(trace, str):
        trace = PointTrace(directory=trace)
    if trace is not None:
        if not isinstance(config, ExperimentConfig):
            raise ValueError(
                "trace files are named by (algorithm, mpl); trace an "
                "experiment's sweep"
            )
        os.makedirs(trace.directory, exist_ok=True)
    grid = config.grid(mpls, algorithms)
    _validate_algorithms(dict.fromkeys(point.algorithm for point in grid))

    sweep = SweepResult(config=config, run=run, replications=replications)
    ckpt = None
    if checkpoint is not None:
        # Imported lazily: persistence imports this module for the
        # result containers.
        from repro.experiments.persistence import SweepCheckpoint

        ckpt = SweepCheckpoint(
            checkpoint, config, run, replications=replications
        )
        if resume and ckpt.exists():
            restored = ckpt.load_into(sweep)
            if progress is not None and restored:
                progress(
                    f"  {config.experiment_id}: resumed {restored} "
                    f"point(s) from {checkpoint}"
                )
        else:
            ckpt.start_fresh()

    plan = _PointPlan(
        config=config, run=run, deadline=deadline,
        stall_timeout=stall_timeout, retries=retries,
        timeseries=timeseries, trace=trace, chaos=chaos,
    )
    points = _pending_points(sweep, grid, replications, invariants)
    started = time.perf_counter()
    if workers > 1 and len(points) > 1:
        # Whatever the supervisor could not finish in parallel (pool
        # crashing repeatedly) falls through to the sequential loop —
        # one code path for normal runs and degraded ones.
        points = _supervise_parallel(
            sweep, points, plan, workers, progress, ckpt
        )
    store = TapeStore()
    for point in points:
        outcomes = _run_point(plan, point, store, progress)
        _finish_point(sweep, config, point, outcomes, ckpt, progress)
    sweep.wall_seconds = time.perf_counter() - started
    if progress is not None:
        progress(
            f"  {config.experiment_id}: swept {len(sweep.results)} "
            f"configurations in {sweep.wall_seconds:.1f}s wall time"
        )
    return sweep


def print_progress(line):
    """Default progress sink: stderr, flushed (safe under pytest -s)."""
    print(line, file=sys.stderr, flush=True)

"""The fault injector: processes that realize a :class:`FaultSpec`.

One :class:`FaultInjector` per :class:`~repro.core.engine.SystemModel`.
It owns dedicated RNG streams (``faults.disk.<i>``, ``faults.cpu``,
``faults.access``) derived from the run's root seed, so fault timing is
deterministic per seed and — because streams are independent — adding
fault draws never perturbs the healthy model's random sequences.

The injector keeps the run's cumulative fault statistics itself, as
plain attributes updated just before each fault event is published on
the run's instrumentation bus (:mod:`repro.obs`) as ``disk_fail``/
``disk_repair``/``cpu_degrade``/``cpu_restore``/``access_fault``. The
events exist only for observers (tracing, streaming), so the counts
never depend on what is attached.

Fault mechanics:

* **Disk crash/repair** — one lifecycle process per disk.  A failure
  is a repair-time service on the disk's normal queue at
  :data:`REPAIR_PRIORITY` (above all transaction I/O): the disk fails
  when the repair gets it and is repaired when the service ends.
  In-flight service completes (crash-consistency of individual
  transfers is out of scope); everything queued behind the failure
  waits out the repair.  Repair holds are
  *not* recorded in the disk's :class:`~repro.des.BusyTracker`, so
  utilization metrics keep meaning "time spent serving transactions".
* **CPU degradation** — a single process toggles the injector's
  ``cpu_factor`` between 1.0 and ``spec.cpu.factor``; the physical model
  multiplies CPU service demands by the factor in effect at service
  start.
* **Transient access faults** — the physical model asks
  :meth:`check_access_fault` before each pre-commit object access; a hit
  raises :class:`~repro.cc.errors.RestartTransaction` with reason
  :data:`~repro.cc.errors.REASON_ACCESS_FAULT`, which the engine handles
  exactly like a concurrency-control restart.
"""

from repro.cc.errors import REASON_ACCESS_FAULT, RestartTransaction
from repro.obs.events import (
    FAULT_ACCESS,
    FAULT_CPU_DEGRADE,
    FAULT_CPU_RESTORE,
    FAULT_DISK_FAIL,
    FAULT_DISK_REPAIR,
)

#: Priority of a repair on a disk's queue: above every transaction leg
#: (disk legs use the default priority 0; lower sorts first).
REPAIR_PRIORITY = -1

__all__ = ["FaultInjector", "REPAIR_PRIORITY"]


class _RepairWatch:
    """``disk_fail``/``disk_repair`` around one repair of one disk.

    The failure is counted when the repair gets the disk; closing a
    finished model never starts one, since it closes the lifecycles
    (older than any transaction) first, withdrawing a queued repair
    before a transaction frees its disk. The downtime is not counted
    here: closing runs ``ended`` for a repair still in flight, so the
    lifecycle counts it instead, where only a completed repair resumes.
    """

    __slots__ = ("injector", "disk", "failed_at")

    def __init__(self, injector, disk):
        self.injector = injector
        self.disk = disk
        self.failed_at = None

    def started(self):
        injector = self.injector
        injector.disk_failures += 1
        self.failed_at = injector.env.now
        injector.bus.emit(FAULT_DISK_FAIL, disk=self.disk)

    def ended(self):
        bus = self.injector.bus
        bus.emit(
            FAULT_DISK_REPAIR, disk=self.disk,
            downtime=bus.env.now - self.failed_at,
        )


class FaultInjector:
    """Drives the fault processes of one simulation run.

    Construct with a non-null spec and the run's instrumentation
    ``bus``, then call :meth:`start` once to attach to the physical
    model and launch the lifecycle processes.
    """

    def __init__(self, env, spec, physical, streams, bus):
        self.env = env
        self.spec = spec
        self.physical = physical
        self.streams = streams
        self.bus = bus
        # Cumulative fault statistics, reported by summary().
        self.disk_failures = 0
        self.disk_downtime = 0.0
        self.cpu_degradations = 0
        self.cpu_degraded_time = 0.0
        self.access_faults = 0
        #: Current CPU service-demand multiplier (1.0 = healthy).
        self.cpu_factor = 1.0
        self._access_rng = None
        if spec.access is not None and spec.access.prob > 0.0:
            self._access_rng = streams.stream("faults.access")

    def start(self):
        """Attach to the resource model and launch fault processes."""
        self.physical.faults = self
        if self.spec.disk is not None:
            # The resource model decides which disks a fault process may
            # crash; infinite models expose none (claiming an infinite
            # server would block nobody), so injecting against them is a
            # configuration error, not a silent no-op.
            targets = self.physical.disk_fault_targets()
            if not targets:
                raise ValueError(
                    "disk faults require finite disks "
                    "(this resource model exposes no crashable disks)"
                )
            for index, disk in targets:
                self.env.process(self._disk_lifecycle(index, disk))
        if self.spec.cpu is not None:
            self.env.process(self._cpu_lifecycle())
        return self

    # -- disk crash/repair ---------------------------------------------------

    def _disk_lifecycle(self, index, disk):
        spec = self.spec.disk
        rng = self.streams.stream(f"faults.disk.{index}")
        while True:
            yield self.env.timeout(rng.exponential(spec.mttf))
            # The repair is a service on the disk's own queue: down from
            # the instant it gets the disk until the repair time is out.
            watch = _RepairWatch(self, index)
            repair = disk.serve(
                rng.exponential(spec.mttr), priority=REPAIR_PRIORITY,
                watch=watch,
            )
            try:
                yield repair
                self.disk_downtime += self.env.now - watch.failed_at
            finally:
                disk.finish(repair)

    # -- CPU degradation windows ---------------------------------------------

    def _cpu_lifecycle(self):
        spec = self.spec.cpu
        rng = self.streams.stream("faults.cpu")
        while True:
            yield self.env.timeout(rng.exponential(spec.mean_interval))
            self.cpu_factor = spec.factor
            degraded_at = self.env.now
            self.cpu_degradations += 1
            self.bus.emit(FAULT_CPU_DEGRADE, factor=spec.factor)
            yield self.env.timeout(rng.exponential(spec.mean_duration))
            self.cpu_factor = 1.0
            duration = self.env.now - degraded_at
            self.cpu_degraded_time += duration
            self.bus.emit(FAULT_CPU_RESTORE, duration=duration)

    # -- transient access faults ---------------------------------------------

    def check_access_fault(self, tx):
        """Maybe fail one pre-commit object access of ``tx``.

        Raises RestartTransaction(REASON_ACCESS_FAULT) on a hit; the
        engine's normal restart path re-runs the transaction with the
        same read/write sets.
        """
        if self._access_rng is None:
            return
        if self._access_rng.bernoulli(self.spec.access.prob):
            self.access_faults += 1
            self.bus.emit(FAULT_ACCESS, tx=tx.id, attempt=tx.attempts)
            raise RestartTransaction(
                REASON_ACCESS_FAULT,
                f"transient fault accessing an object of tx {tx.id}",
            )

    # -- reporting -----------------------------------------------------------

    def summary(self):
        """Cumulative fault statistics for the run's totals."""
        return {
            "spec": self.spec.describe(),
            "disk_failures": self.disk_failures,
            "disk_downtime": self.disk_downtime,
            "cpu_degradations": self.cpu_degradations,
            "cpu_degraded_time": self.cpu_degraded_time,
            "access_faults": self.access_faults,
        }

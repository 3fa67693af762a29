"""The fault injector: processes that realize a :class:`FaultSpec`.

One :class:`FaultInjector` per :class:`~repro.core.engine.SystemModel`.
It owns dedicated RNG streams (``faults.disk.<i>``, ``faults.cpu``,
``faults.access``) derived from the run's root seed, so fault timing is
deterministic per seed and — because streams are independent — adding
fault draws never perturbs the healthy model's random sequences.

Fault occurrences are published on the run's instrumentation bus
(:mod:`repro.obs`) as ``disk_fail``/``disk_repair``/``cpu_degrade``/
``cpu_restore``/``access_fault`` events; the injector's own cumulative
statistics are kept by a :class:`~repro.obs.FaultAccountingSubscriber`
it attaches, so fault accounting, fault tracing and fault streaming all
ride the same event stream.

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
from repro.obs.bus import InstrumentationBus
from repro.obs.events import (
    FAULT_ACCESS,
    FAULT_CPU_DEGRADE,
    FAULT_CPU_RESTORE,
    FAULT_DISK_FAIL,
    FAULT_DISK_REPAIR,
)
from repro.obs.subscribers import FaultAccountingSubscriber

#: Priority of a repair on a disk's queue: above every transaction leg
#: (disk legs use the default priority 0; lower sorts first).
REPAIR_PRIORITY = -1

__all__ = ["FaultInjector", "REPAIR_PRIORITY"]


class _RepairWatch:
    """``disk_fail``/``disk_repair`` around one repair of one disk."""

    __slots__ = ("bus", "disk", "failed_at")

    def __init__(self, bus, disk):
        self.bus = bus
        self.disk = disk
        self.failed_at = None

    def started(self):
        self.failed_at = self.bus.env.now
        self.bus.emit(FAULT_DISK_FAIL, disk=self.disk)

    def ended(self):
        self.bus.emit(
            FAULT_DISK_REPAIR, disk=self.disk,
            downtime=self.bus.env.now - self.failed_at,
        )


class FaultInjector:
    """Drives the fault processes of one simulation run.

    Construct with a non-null spec, then call :meth:`start` once to
    attach to the physical model and launch the lifecycle processes.
    ``bus`` is the run's instrumentation bus; standalone use (tests)
    may omit it, in which case the injector creates a private one.
    """

    def __init__(self, env, spec, physical, streams, bus=None):
        self.env = env
        self.spec = spec
        self.physical = physical
        self.streams = streams
        self.bus = bus if bus is not None else InstrumentationBus(env)
        #: Cumulative fault statistics, maintained off the event stream.
        self.accounting = self.bus.attach(FaultAccountingSubscriber())
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

    # -- cumulative statistics (delegated to the accounting subscriber) ------

    @property
    def disk_failures(self):
        return self.accounting.disk_failures

    @property
    def disk_downtime(self):
        return self.accounting.disk_downtime

    @property
    def disks_down(self):
        return self.accounting.disks_down

    @property
    def cpu_degradations(self):
        return self.accounting.cpu_degradations

    @property
    def cpu_degraded_time(self):
        return self.accounting.cpu_degraded_time

    @property
    def access_faults(self):
        return self.accounting.access_faults

    # -- disk crash/repair ---------------------------------------------------

    def _disk_lifecycle(self, index, disk):
        spec = self.spec.disk
        rng = self.streams.stream(f"faults.disk.{index}")
        while True:
            yield self.env.timeout(rng.exponential(spec.mttf))
            # The repair is a service on the disk's own queue: down from
            # the instant it gets the disk until the repair time is out.
            repair = disk.serve(
                rng.exponential(spec.mttr), priority=REPAIR_PRIORITY,
                watch=_RepairWatch(self.bus, index),
            )
            try:
                yield repair
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
            self.bus.emit(FAULT_CPU_DEGRADE, factor=spec.factor)
            yield self.env.timeout(rng.exponential(spec.mean_duration))
            self.cpu_factor = 1.0
            self.bus.emit(
                FAULT_CPU_RESTORE, duration=self.env.now - degraded_at
            )

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
            self.bus.emit(FAULT_ACCESS, tx=tx.id, attempt=tx.attempts)
            raise RestartTransaction(
                REASON_ACCESS_FAULT,
                f"transient fault accessing an object of tx {tx.id}",
            )

    # -- reporting -----------------------------------------------------------

    def summary(self):
        """Cumulative fault statistics for the run's totals."""
        accounting = self.accounting
        return {
            "spec": self.spec.describe(),
            "disk_failures": accounting.disk_failures,
            "disk_downtime": accounting.disk_downtime,
            "cpu_degradations": accounting.cpu_degradations,
            "cpu_degraded_time": accounting.cpu_degraded_time,
            "access_faults": accounting.access_faults,
        }

"""Built-in bus subscribers: metrics, buffer and fault accounting.

Each class adapts one pre-existing measurement consumer to the
:class:`~repro.obs.bus.InstrumentationBus` subscriber protocol, so the
engine has a single emission path instead of hand-wired collector
fields. All of them are pure observers: they never mutate model state,
which is what keeps fixed-seed results bit-identical whatever set of
subscribers is attached.
"""

from repro.core.transaction import Transaction
from repro.obs.events import (
    ALL_KINDS,
    BUFFER_HIT,
    BUFFER_KINDS,
    BUFFER_MISS,
    BUFFER_WRITEBACK,
    FAULT_ACCESS,
    FAULT_CPU_DEGRADE,
    FAULT_CPU_RESTORE,
    FAULT_DISK_FAIL,
    FAULT_DISK_REPAIR,
    FAULT_KINDS,
    LIFECYCLE_KINDS,
    TX_ADMIT,
    TX_BLOCK,
    TX_COMMIT_POINT,
    TX_COMPLETE,
    TX_RESTART,
    TX_RESUBMIT,
    TX_SUBMIT,
)


def scalar_fields(kind, fields):
    """Flatten one event's fields to the trace line layout.

    Live :class:`~repro.core.transaction.Transaction` objects collapse
    to their ids. A lifecycle line also carries the transaction's
    ``attempt``; ``submit`` adds its ``terminal`` and read/write set
    sizes, ``commit_point`` the number of installed ``writes`` and
    ``commit`` the ``response`` time. Every other field, and every
    field of any other kind, passes through unchanged.
    """
    flat = {}
    tx = fields.get("tx")
    if isinstance(tx, Transaction) and kind in LIFECYCLE_KINDS:
        flat["tx"] = tx.id
        flat["attempt"] = tx.attempts
        if kind == TX_SUBMIT:
            flat["terminal"] = tx.terminal_id
            flat["reads"] = len(tx.read_set)
            flat["writes"] = len(tx.write_set)
        elif kind == TX_COMMIT_POINT:
            flat["writes"] = len(tx.install_write_set)
        elif kind == TX_COMPLETE:
            flat["response"] = tx.response_time()
    for key, value in fields.items():
        if key not in flat:
            flat[key] = value.id if isinstance(value, Transaction) else value
    return flat


class Subscriber:
    """Convenience base: route every subscribed kind to ``on_event``.

    Subclasses either set ``kinds`` (an iterable of event kinds; None
    means every kind in :data:`~repro.obs.events.ALL_KINDS`) and
    implement ``on_event(time, kind, fields)``, or override
    :meth:`handlers` entirely for per-kind dispatch without the extra
    indirection.
    """

    kinds = None

    def handlers(self):
        kinds = ALL_KINDS if self.kinds is None else self.kinds
        on_event = self.on_event
        table = {}
        for kind in kinds:
            # Bind the kind now so the per-event call carries it.
            table[kind] = (
                lambda time, fields, _kind=kind:
                on_event(time, _kind, fields)
            )
        return table

    def on_event(self, time, kind, fields):
        raise NotImplementedError


class MetricsSubscriber:
    """Feeds a :class:`~repro.core.metrics.MetricsCollector`.

    Translates lifecycle events into the collector's recording hooks
    and maintains its ready/active :class:`~repro.des.LevelMonitor`
    mirrors of the engine's admission state. This is the default (and
    usually only) subscriber; the dispatch path through it is the
    engine's measurement fast path.
    """

    def __init__(self, metrics):
        self.metrics = metrics

    def handlers(self):
        metrics = self.metrics
        ready = metrics.ready_queue_level
        active = metrics.active_level

        def submit(time, fields):
            metrics.record_submit(fields["tx"])
            ready.add(1)

        def enqueue(time, fields):
            ready.add(1)

        def admit(time, fields):
            ready.add(-1)
            active.add(1)

        def block(time, fields):
            metrics.record_block(fields["tx"])

        def restart(time, fields):
            metrics.record_restart(fields["tx"], fields["reason"])
            active.add(-1)

        def commit(time, fields):
            metrics.record_commit(fields["tx"])
            active.add(-1)

        return {
            TX_SUBMIT: submit,
            TX_RESUBMIT: enqueue,
            TX_ADMIT: admit,
            TX_BLOCK: block,
            TX_RESTART: restart,
            TX_COMPLETE: commit,
        }


class BufferAccountingSubscriber:
    """Accumulates the cache statistics of one run.

    The ``buffered`` resource model emits ``buffer_hit``/``buffer_miss``
    per object read and ``buffer_writeback`` per deferred update; this
    subscriber (attached by the model itself, mirroring the fault
    injector's accounting) turns them into the counters behind
    ``buffer_summary()``, the run diagnostics, and the sweep report's
    hit-ratio table.
    """

    kinds = BUFFER_KINDS

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    @property
    def probes(self):
        return self.hits + self.misses

    @property
    def hit_ratio(self):
        """Realized hit ratio, or None before any probe."""
        probes = self.hits + self.misses
        if probes == 0:
            return None
        return self.hits / probes

    def handlers(self):
        def hit(time, fields):
            self.hits += 1

        def miss(time, fields):
            self.misses += 1

        def writeback(time, fields):
            self.writebacks += 1

        return {
            BUFFER_HIT: hit,
            BUFFER_MISS: miss,
            BUFFER_WRITEBACK: writeback,
        }


class FaultAccountingSubscriber:
    """Accumulates the cumulative fault statistics of one run.

    The :class:`~repro.faults.FaultInjector` emits fault events; this
    subscriber (attached by the injector itself) turns them into the
    counters its ``summary()`` reports, so fault accounting rides the
    same event stream as every other signal.
    """

    kinds = FAULT_KINDS

    def __init__(self):
        self.disk_failures = 0
        self.disk_downtime = 0.0
        #: Disks currently under repair (a gauge, not a counter).
        self.disks_down = 0
        self.cpu_degradations = 0
        self.cpu_degraded_time = 0.0
        self.access_faults = 0

    def handlers(self):
        def disk_fail(time, fields):
            self.disk_failures += 1
            self.disks_down += 1

        def disk_repair(time, fields):
            self.disks_down -= 1
            self.disk_downtime += fields["downtime"]

        def cpu_degrade(time, fields):
            self.cpu_degradations += 1

        def cpu_restore(time, fields):
            self.cpu_degraded_time += fields["duration"]

        def access_fault(time, fields):
            self.access_faults += 1

        return {
            FAULT_DISK_FAIL: disk_fail,
            FAULT_DISK_REPAIR: disk_repair,
            FAULT_CPU_DEGRADE: cpu_degrade,
            FAULT_CPU_RESTORE: cpu_restore,
            FAULT_ACCESS: access_fault,
        }

"""The resource-model service interface (and its default machinery).

A *resource model* is the physical tier of the simulation: it decides
what CPU and I/O service an object access costs and which server queues
it waits in. The paper's central finding is that these assumptions —
infinite vs. finite vs. multiple resources — are what flipped earlier
studies' conclusions, so the physical tier is a first-class, pluggable
layer mirroring the concurrency-control registry
(:mod:`repro.cc.registry`): models register by name in
:mod:`repro.resources.registry` and the engine constructs whichever one
``SimulationParameters.resource_model`` names.

Service interface (what the engine consumes)
--------------------------------------------

Each service primitive returns a generator driven with ``yield from``
inside a transaction process, and is interrupt-safe: on abort
mid-service the partial service time is still charged and the server
released.

* ``read_access(tx, obj)`` — one pre-commit object read (I/O + CPU);
* ``write_request_work(tx, obj)`` — CPU work at write-request time;
* ``deferred_update(tx, obj)`` — one deferred update written at commit
  time;
* ``cc_request_work(tx)`` — CPU work for one concurrency-control
  request (priority class; no-op unless ``cc_cpu`` is set — callers
  check ``has_cc_work`` and skip the generator entirely);
* ``cpu_service(tx, amount, priority)`` / ``disk_service(tx, amount)``
  / ``disk_service_at(tx, disk_index, amount)`` — the raw legs the
  composites are built from.

Accounting and hooks:

* ``charge_attempt(tx, useful)`` — classify the attempt's consumed
  service time by outcome (drives the paper's total vs. useful
  utilization curves);
* ``cpu_tracker`` / ``disk_tracker`` — :class:`~repro.des.BusyTracker`
  utilization instruments;
* ``faults`` — optional :class:`~repro.faults.FaultInjector`, attached
  by its ``start()``; ``disk_fault_targets()`` names the finite disks a
  disk-fault process may claim (empty for infinite disks);
* ``buffer_summary()`` — cache statistics for models with a buffer
  pool (None for models without one);
* ``describe_resources()`` — per-model resource labels for reports and
  diagnostics.

``obj`` — the object (page) id being accessed — is accepted by every
per-object primitive so placement- and cache-aware models can use it;
the classic model ignores it, which is what keeps it bit-identical to
the original hard-coded physical tier. ``obj=None`` (direct driving in
tests) falls back to object-blind behavior everywhere.

The default implementations in :class:`ResourceModel` are the paper's
Figure 2 model exactly as once hard-coded in the since-removed
``repro.core.physical``: a pool of identical CPU servers draining one
global queue FCFS (concurrency-control requests have priority), the
database uniformly partitioned across the disks, and
``num_cpus``/``num_disks`` of None modeling infinite resources
in-band. The service primitives are hot-path code: disk selections are
drawn in batches from the disk stream (same draws, same order as
one-at-a-time), timeouts are constructed directly, and request/release
pairing uses explicit try/finally — identical semantics, fewer calls
per service.
"""

from repro.des import BusyTracker, InfiniteResource, Resource
from repro.des.events import Timeout
from repro.obs.events import MSG_RECV, MSG_SEND, RESOURCE_BUSY, RESOURCE_IDLE

#: CPU queue priority classes: CC requests beat object processing.
CC_PRIORITY = 0
OBJECT_PRIORITY = 1

#: Disk selections drawn from the disk stream per refill. Batching only
#: amortizes call overhead; the value sequence is unchanged.
_DISK_PICK_BATCH = 256


class ResourceModel:
    """Base resource model: CPU pool + partitioned disks + accounting.

    Subclasses override the service composites (``read_access`` /
    ``deferred_update``), :meth:`_build_resources`, or both. See the
    registered models: ``classic``, ``buffered``, ``skewed_disks``,
    ``distributed``.
    """

    #: Registry name; subclasses must set a unique non-empty string.
    name = None

    def __init__(self, env, params, streams, bus=None):
        self.env = env
        self.params = params
        #: Optional repro.obs.InstrumentationBus for resource busy/idle
        #: events; emission is guarded by its ``wants_resource`` flag so
        #: the unobserved case costs one attribute load per service.
        self.bus = bus
        self._streams = streams
        self._disk_rng = streams.stream("physical.disk_choice")
        self._disk_picks = []
        self._disk_pick_at = 0
        #: Optional repro.faults.FaultInjector; set by its start().
        #: None (the default) is the always-healthy physical model.
        self.faults = None
        #: False when ``cc_cpu`` is zero (the paper's tables): lets the
        #: engine skip the whole cc_request_work generator per request.
        self.has_cc_work = params.cc_cpu > 0.0
        #: Number of sites in the model's topology. Single-site models
        #: stay at 1 (node addressing collapses to the flat indices);
        #: the ``distributed`` model sets ``params.nodes``.
        self.nodes = 1
        #: Cross-node message accounting (count, summed delay). Stays
        #: zero for single-site models — ``network_summary`` reports
        #: None then, so their totals keep the exact pre-topology
        #: byte layout.
        self.messages_sent = 0
        self.network_time = 0.0
        self._network_rng = None
        self._build_resources()

    # -- construction hooks --------------------------------------------------

    def _build_resources(self):
        """Instantiate the server pools and their utilization trackers.

        The default is the paper's single-site tier: one pooled CPU
        queue and one flat disk list. Multi-site models override this to
        build per-node pools (keeping ``self.disks`` as the flattened
        node-major list so disk addressing, fault targeting and the
        utilization trackers stay uniform).
        """
        env = self.env
        num_cpus, num_disks = self.params.num_cpus, self.params.num_disks
        if num_cpus is None:
            self.cpu = InfiniteResource(env)
            cpu_capacity = float("inf")
        else:
            self.cpu = Resource(env, capacity=num_cpus)
            cpu_capacity = num_cpus

        if num_disks is None:
            self.disks = [InfiniteResource(env)]
            disk_capacity = float("inf")
        else:
            self.disks = [
                Resource(env, capacity=1) for _ in range(num_disks)
            ]
            disk_capacity = num_disks

        self.cpu_tracker = BusyTracker(env, "cpu", cpu_capacity)
        self.disk_tracker = BusyTracker(env, "disk", disk_capacity)

    # -- node addressing -----------------------------------------------------
    #
    # Every model is node-addressable; single-site models are the
    # degenerate one-node case, so placement-blind callers and the
    # invariant checker can use the same interface everywhere.

    def node_of(self, obj):
        """The node whose shard holds ``obj`` (always 0 single-site)."""
        return 0

    def home_node(self, tx):
        """The node a transaction originates at (always 0 single-site)."""
        return 0

    def cpu_capacity_at(self, node):
        """CPU servers at one node (the invariant checker's bound)."""
        return getattr(self.cpu, "capacity", float("inf"))

    def participant_nodes(self, tx):
        """Remote nodes a transaction touched (commit-protocol seam).

        Single-site models involve no remote participants, so a 2PC
        commit protocol composed with them degenerates to the atomic
        commit point.
        """
        return ()

    def network_leg(self, tx, src, dst):
        """One cross-node message: an explicit service stage.

        A message from ``src`` to ``dst`` waits an exponential
        ``params.network_delay`` drawn from the dedicated
        ``resources.network`` stream (the interconnect is modeled as a
        delay, not a queued server) and emits ``msg_send``/``msg_recv``
        bus events around the transfer (built only when the bus's
        ``wants_msg`` flag says someone handles them). Local messages
        (``src == dst``) are free and draw nothing, which is what keeps
        one-node topologies bit-identical to the single-site models: no
        cross-node traffic can ever arise there.
        """
        if src == dst:
            return
        bus = self.bus
        if bus is not None and bus.wants_msg:
            bus.emit(MSG_SEND, tx=tx, src=src, dst=dst)
        self.messages_sent += 1
        delay = self.params.network_delay
        if delay > 0.0:
            if self._network_rng is None:
                self._network_rng = self._streams.stream(
                    "resources.network"
                )
            delay = self._network_rng.exponential(delay)
            self.network_time += delay
            yield Timeout(self.env, delay)
        if bus is not None and bus.wants_msg:
            bus.emit(MSG_RECV, tx=tx, src=src, dst=dst)

    def network_summary(self):
        """Message accounting, or None when no cross-node traffic ran.

        The conditional-None convention mirrors ``buffer_summary``: a
        run with zero messages adds no totals key, so single-site runs
        (and one-node distributed runs, which can never send) keep
        their exact byte layout.
        """
        if not self.messages_sent:
            return None
        return {
            "messages": self.messages_sent,
            "network_time": self.network_time,
            "mean_delay": self.network_time / self.messages_sent,
        }

    # -- service primitives -------------------------------------------------
    #
    # Each returns a generator to be driven with ``yield from`` inside a
    # transaction process. They are interrupt-safe: on abort mid-service
    # the partial service time is still charged and the server released.

    def cpu_service(self, tx, amount, priority=OBJECT_PRIORITY):
        """Hold one CPU server for ``amount`` seconds.

        Under an injected CPU degradation window the demand is
        multiplied by the factor in effect when service *starts* (a
        window boundary does not stretch service already in progress).
        """
        if amount <= 0.0:
            return
        if self.faults is not None:
            amount *= self.faults.cpu_factor
        env = self.env
        bus = self.bus
        tracker = self.cpu_tracker
        request = self.cpu.request(priority=priority)
        try:
            yield request
            tracker.acquire()
            if bus is not None and bus.wants_resource:
                bus.emit(RESOURCE_BUSY, resource="cpu", tx=tx)
            start = env._now
            try:
                yield Timeout(env, amount)
            finally:
                tracker.release()
                tx.attempt_cpu_time += env._now - start
                if bus is not None and bus.wants_resource:
                    bus.emit(RESOURCE_IDLE, resource="cpu", tx=tx)
        finally:
            self.cpu.release(request)

    def _pick_disk(self):
        """Index of a uniformly chosen disk (batched draws)."""
        at = self._disk_pick_at
        picks = self._disk_picks
        if at >= len(picks):
            self._disk_picks = picks = self._disk_rng.uniform_int_many(
                0, len(self.disks) - 1, _DISK_PICK_BATCH
            )
            at = 0
        self._disk_pick_at = at + 1
        return picks[at]

    def disk_service(self, tx, amount):
        """Hold a uniformly chosen disk for ``amount`` seconds."""
        if amount <= 0.0:
            return
        yield from self.disk_service_at(tx, self._pick_disk(), amount)

    def disk_service_at(self, tx, disk_index, amount):
        """Hold disk ``disk_index`` (of ``self.disks``) for ``amount`` s.

        The placement-aware leg: callers that map objects to specific
        spindles (``skewed_disks``) or that decide queueing per access
        (``buffered``) pick the index themselves.
        """
        if amount <= 0.0:
            return
        env = self.env
        bus = self.bus
        tracker = self.disk_tracker
        disk = self.disks[disk_index]
        request = disk.request()
        try:
            yield request
            tracker.acquire()
            if bus is not None and bus.wants_resource:
                bus.emit(RESOURCE_BUSY, resource="disk", disk=disk_index, tx=tx)
            start = env._now
            try:
                yield Timeout(env, amount)
            finally:
                tracker.release()
                tx.attempt_disk_time += env._now - start
                if bus is not None and bus.wants_resource:
                    bus.emit(RESOURCE_IDLE, resource="disk", disk=disk_index, tx=tx)
        finally:
            disk.release(request)

    # -- model-level composites -----------------------------------------------
    #
    # The composites inline the disk/cpu service bodies instead of
    # delegating with ``yield from``: an object access is the single
    # most-executed code path of a simulator, and the flattened form
    # creates one generator per access instead of three. The yields,
    # their order, and the interrupt-time accounting are exactly those
    # of ``disk_service`` followed by ``cpu_service``.

    def read_access(self, tx, obj=None):
        """Read one object: obj_io of disk, then obj_cpu of CPU.

        With fault injection, the access may fault first (raising
        RestartTransaction before any service is consumed).
        """
        faults = self.faults
        if faults is not None:
            faults.check_access_fault(tx)
        env = self.env
        bus = self.bus
        params = self.params

        amount = params.obj_io
        if amount > 0.0:
            disk_index = self._pick_disk()
            tracker = self.disk_tracker
            disk = self.disks[disk_index]
            request = disk.request()
            try:
                yield request
                tracker.acquire()
                if bus is not None and bus.wants_resource:
                    bus.emit(
                        RESOURCE_BUSY, resource="disk",
                        disk=disk_index, tx=tx,
                    )
                start = env._now
                try:
                    yield Timeout(env, amount)
                finally:
                    tracker.release()
                    tx.attempt_disk_time += env._now - start
                    if bus is not None and bus.wants_resource:
                        bus.emit(
                            RESOURCE_IDLE, resource="disk",
                            disk=disk_index, tx=tx,
                        )
            finally:
                disk.release(request)

        amount = params.obj_cpu
        if amount <= 0.0:
            return
        if faults is not None:
            amount *= faults.cpu_factor
        tracker = self.cpu_tracker
        request = self.cpu.request(priority=OBJECT_PRIORITY)
        try:
            yield request
            tracker.acquire()
            if bus is not None and bus.wants_resource:
                bus.emit(RESOURCE_BUSY, resource="cpu", tx=tx)
            start = env._now
            try:
                yield Timeout(env, amount)
            finally:
                tracker.release()
                tx.attempt_cpu_time += env._now - start
                if bus is not None and bus.wants_resource:
                    bus.emit(RESOURCE_IDLE, resource="cpu", tx=tx)
        finally:
            self.cpu.release(request)

    def write_request_work(self, tx, obj=None):
        """CPU work at write-request time (updates are deferred).

        Subject to transient access faults like reads; deferred updates
        at commit time are not (past the commit point the transaction
        can no longer abort).
        """
        if self.faults is not None:
            self.faults.check_access_fault(tx)
        yield from self.cpu_service(tx, self.params.obj_cpu)

    def deferred_update(self, tx, obj=None):
        """Write one deferred update to disk at commit time."""
        yield from self.disk_service(tx, self.params.obj_io)

    def cc_request_work(self, tx):
        """CPU work for one concurrency-control request (priority class).

        Zero in the paper's parameter tables, so this is a no-op unless
        ``cc_cpu`` is set (callers can check ``has_cc_work`` and skip
        the generator entirely).
        """
        yield from self.cpu_service(tx, self.params.cc_cpu, CC_PRIORITY)

    # -- attempt outcome accounting ----------------------------------------------

    def charge_attempt(self, tx, useful):
        """Classify the attempt's consumed service time by outcome."""
        self.cpu_tracker.record_outcome(tx.attempt_cpu_time, useful)
        self.disk_tracker.record_outcome(tx.attempt_disk_time, useful)

    # -- fault, cache and labelling hooks -----------------------------------------

    def disk_fault_targets(self):
        """``[(index, disk)]`` a disk-fault process may crash.

        Only finite (queued) disks are meaningful targets: claiming an
        :class:`~repro.des.InfiniteResource` blocks nobody, so infinite
        configurations return an empty list and the fault injector
        refuses disk-fault specs against them.
        """
        if isinstance(self.disks[0], InfiniteResource):
            return []
        return list(enumerate(self.disks))

    def buffer_summary(self):
        """Cache statistics, or None for models without a buffer pool."""
        return None

    def describe_resources(self):
        """Per-model resource labels (reports, diagnostics)."""
        num_cpus, num_disks = self.params.num_cpus, self.params.num_disks
        return {
            "model": self.name,
            "cpus": "inf" if num_cpus is None else num_cpus,
            "disks": "inf" if num_disks is None else num_disks,
        }

    def __repr__(self):
        labels = self.describe_resources()
        return (
            f"<{type(self).__name__} {labels['model']} "
            f"cpus={labels['cpus']} disks={labels['disks']}>"
        )

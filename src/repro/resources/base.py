"""The resource-model service interface: one pipeline for every model.

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
released. The one exception is the network leg, a plain call:

* ``read_access(tx, obj)`` — one pre-commit object read (I/O + CPU);
* ``write_request_work(tx, obj)`` — CPU work at write-request time;
* ``deferred_update(tx, obj)`` — one deferred update written at commit
  time;
* ``cc_request_work(tx)`` — CPU work for one concurrency-control
  request (priority class; no-op unless ``cc_cpu`` is set — callers
  check ``has_cc_work`` and skip the generator entirely);
* ``cpu_service(tx, amount, priority)`` — the raw CPU leg at the
  transaction's home node;
* ``network_leg(tx, src, dst)`` — one cross-node message: counts it,
  emits ``msg_send`` when observed and returns the leg's
  :class:`~repro.des.Timeout` (None for a zero delay or a local leg).
  The caller yields the event, then emits ``msg_recv`` when observed,
  so a leg interrupted in flight sends without receiving.

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
  pool (None for models without one), from the hit, miss and
  write-back counters the model keeps itself;
* ``describe_resources()`` — per-model resource labels for reports and
  diagnostics.

``obj`` — the object (page) id being accessed — is accepted by every
per-object primitive so placement- and cache-aware models can use it.
``obj=None`` (direct driving in tests) falls back to object-blind
behavior everywhere: a uniform disk draw, a home-node read, no LRU hit.

One pipeline
------------

:class:`ResourceModel` is the only class that defines the service
composites. Every object read, in every model, runs one body::

    [request leg out] -> buffer probe -> disk at placement(node, obj)
        -> fill -> [data leg back] -> CPU at home node

and a deferred update runs its write half (message leg, write-back,
fill) once per copy of the object. What distinguishes the registered
models is data set at construction:

* **placement** — ``_disk_of`` (object -> spindle, ``skewed_disks``)
  and ``_read_from``/``_replicas`` (object -> serving node, object ->
  every copy, ``distributed``), all built by :func:`placement_table`;
  left None, a read is served at the one site from a uniformly drawn
  disk;
* **buffer** — per-node LRU directories or the fixed-ratio
  ``resources.buffer`` stream (:meth:`ResourceModel._attach_buffer`);
  without either, no probe, fill, count or buffer event happens;
* **CPU pools** — ``node_cpus``, which is ``[cpu]`` at one site.

With every table None and no buffer, the pipeline is the paper's
Figure 2 model exactly as once hard-coded in the since-removed
``repro.core.physical``: a pool of identical CPU servers draining one
global queue FCFS (concurrency-control requests have priority), the
database uniformly partitioned across the disks, and
``num_cpus``/``num_disks`` of None modeling infinite resources in-band.
Subclasses keep only what differs: validation, table building,
``buffer_summary`` and ``describe_resources``.

The composites are hot-path code and are flat: each inlines its disk
and CPU legs, so an access runs one generator, remote or not. Every
CPU or disk leg is one :meth:`~repro.des.Resource.serve` call — the
pool starts the service, charges the busy tracker and schedules the
completion itself, so a leg costs one kernel event and one wake-up of
the transaction — closed by one ``finish`` in a ``finally``. A network
leg is one ``network_leg`` call returning one
:class:`~repro.des.Timeout`. Uniform disk selections and network delays
are drawn in batches from their streams (same draws, same order as one
at a time). Buffer hits, misses and write-backs are counted by the
model; their ``buffer_*`` events are built only under the bus's
``wants_buffer`` flag. Buffer events and CPU
``resource_busy``/``resource_idle`` carry the ``node`` they happen at,
0 on a single site.
"""

from collections import OrderedDict
from functools import partial

from repro.core.params import DISK_PLACEMENT_STRIPED
from repro.des import BusyTracker, InfiniteResource, Resource
from repro.des.events import Timeout
from repro.obs.events import (
    BUFFER_HIT,
    BUFFER_MISS,
    BUFFER_WRITEBACK,
    MSG_RECV,
    MSG_SEND,
    RESOURCE_BUSY,
    RESOURCE_IDLE,
)

#: CPU queue priority classes: CC requests beat object processing.
CC_PRIORITY = 0
OBJECT_PRIORITY = 1

#: Disk selections drawn from the disk stream per chunk. Chunking only
#: amortizes call overhead; the value sequence is unchanged.
_DISK_PICK_BATCH = 256

#: Network delays drawn from the network stream per refill. The stream
#: feeds only network legs, so drawing ahead changes no value.
_NETWORK_DRAW_BATCH = 256

#: The copies a deferred update writes on a single site: node 0's.
_ONE_SITE = (0,)


def placement_table(count, params):
    """Which of ``count`` units (disks or nodes) holds each object id.

    ``params.disk_placement`` picks the formula. ``contiguous`` maps
    runs of db_size/count ids to one unit each (``obj * count //
    db_size``), so a hotspot workload's hot region — the first
    ``hot_fraction`` of the id space — lands on the low-numbered units
    and data skew becomes resource skew. ``striped`` deals ids
    round-robin (``obj % count``): perfect striping, the control arm.
    Placement is a pure function of the id, so no stream is drawn.
    """
    db_size = params.db_size
    if params.disk_placement == DISK_PLACEMENT_STRIPED:
        return [obj % count for obj in range(db_size)]
    return [obj * count // db_size for obj in range(db_size)]


def _disk_pick_chunks(count):
    """Drawer maker of uniform picks among ``count`` disks of a node.

    A plain closure over ``count``: a recorded sequence keeps its
    drawer, which must not keep the model that first asked alive.
    """
    high = count - 1

    def make_drawer(streams):
        draw = streams.stream("physical.disk_choice").uniform_int_many
        return partial(draw, 0, high, _DISK_PICK_BATCH)

    return make_drawer


def _pools(env, count, capacity):
    """``count`` server pools of ``capacity`` servers (None: infinite)."""
    if capacity is None:
        return [InfiniteResource(env) for _ in range(count)]
    return [Resource(env, capacity=capacity) for _ in range(count)]


class _Watch:
    """``resource_busy``/``resource_idle`` around one observed service."""

    __slots__ = ("emit", "fields")

    def __init__(self, bus, tx, resource, **where):
        self.emit = bus.emit
        self.fields = {"resource": resource, **where, "tx": tx}

    def started(self):
        self.emit(RESOURCE_BUSY, **self.fields)

    def ended(self):
        self.emit(RESOURCE_IDLE, **self.fields)


class ResourceModel:
    """The one resource pipeline: CPU pools, disks, buffer, placement.

    The registered models (``classic``, ``buffered``, ``skewed_disks``,
    ``distributed``) configure it; see the module docstring.
    """

    #: Registry name; subclasses must set a unique non-empty string.
    name = None

    def __init__(self, env, params, streams, bus=None):
        self.env = env
        self.params = params
        #: Optional repro.obs.InstrumentationBus for resource busy/idle,
        #: message and buffer events; emission is guarded by its
        #: ``wants_resource``/``wants_msg``/``wants_buffer`` flags so the
        #: unobserved case costs one attribute load per service.
        self.bus = bus
        self._streams = streams
        #: Optional repro.faults.FaultInjector; set by its start().
        #: None (the default) is the always-healthy physical model.
        self.faults = None
        #: False when ``cc_cpu`` is zero (the paper's tables): lets the
        #: engine skip the whole cc_request_work generator per request.
        self.has_cc_work = params.cc_cpu > 0.0
        #: Number of sites. Single-site models stay at 1; the
        #: ``distributed`` model sets ``params.nodes``.
        self.nodes = 1
        #: Placement tables (None: uniform disk draw at the one site).
        self._disk_of = None
        self._read_from = None
        self._replicas = None
        #: Buffer pool (see _attach_buffer): off by default.
        self._buffered = False
        self._lru = None
        self._hit_rng = None
        self.buffer_capacity = None
        #: Cache counters, kept whether or not anyone observes the
        #: ``buffer_*`` events (see buffer_summary).
        self.buffer_hits = 0
        self.buffer_misses = 0
        self.buffer_writebacks = 0
        #: Cross-node message accounting (count, summed delay). Stays
        #: zero for single-site models — ``network_summary`` reports
        #: None then, so their totals keep the exact pre-topology
        #: byte layout.
        self.messages_sent = 0
        self.network_time = 0.0
        self._network_rng = None
        self._network_draws = []
        self._network_draw_at = 0
        self._build_resources()
        #: Uniform disk picks: the ``physical.disk_choice`` sequence
        #: (None with one disk per node: nothing to choose, so nothing
        #: is drawn), read through this model's cursor — the chunk
        #: index, the chunk and the offset into it.
        self._disk_sequence = None
        if self.disks_per_node > 1:
            self._disk_sequence = streams.sequence(
                "physical.disk_choice",
                _disk_pick_chunks(self.disks_per_node),
            )
        self._disk_chunk = -1
        self._disk_picks = ()
        self._disk_pick_at = 0

    # -- construction hooks --------------------------------------------------

    def _build_resources(self):
        """Build ``self.nodes`` CPU pools and disk sets, and trackers.

        ``self.disks`` is the flattened node-major disk list (node n's
        disks occupy indices [n*disks_per_node, (n+1)*disks_per_node)),
        so disk addressing, fault targeting and the utilization
        trackers are the same for every topology. ``self.cpu`` is node
        0's pool: the paper's single pooled CPU queue on one site.
        """
        env = self.env
        nodes = self.nodes
        num_cpus, num_disks = self.params.num_cpus, self.params.num_disks
        self.node_cpus = _pools(env, nodes, num_cpus)
        self.cpu = self.node_cpus[0]
        self.disks_per_node = 1 if num_disks is None else num_disks
        self.disks = _pools(
            env, nodes * self.disks_per_node,
            None if num_disks is None else 1,
        )
        self.cpu_tracker = BusyTracker(
            env, "cpu",
            float("inf") if num_cpus is None else nodes * num_cpus,
        )
        self.disk_tracker = BusyTracker(
            env, "disk",
            float("inf") if num_disks is None else nodes * num_disks,
        )

    def _attach_buffer(self, capacity=None, hit_ratio=None):
        """Put a buffer pool in front of every node's disks.

        With ``hit_ratio`` unset, each node gets an exact LRU directory
        over object ids holding ``capacity`` pages: deterministic given
        the access sequence, no draws. With ``hit_ratio`` set, every
        probe hits with that probability, drawn from the dedicated
        ``resources.buffer`` stream. Every probe and write-back is
        counted by the model itself, with or without a bus.
        """
        if hit_ratio is None:
            self._lru = [OrderedDict() for _ in range(self.nodes)]
            self.buffer_capacity = capacity
        else:
            self._hit_rng = self._streams.stream("resources.buffer")
            self._hit_ratio = hit_ratio
        self._buffered = True

    # -- node addressing -----------------------------------------------------
    #
    # Every model is node-addressable; single-site models are the
    # degenerate one-node case, so placement-blind callers, the commit
    # protocol and the invariant checker use one interface everywhere.

    def home_node(self, tx):
        """The node a transaction originates at (``tx.id % nodes``)."""
        if tx is None:
            return 0
        return tx.id % self.nodes

    def cpu_capacity_at(self, node):
        """CPU servers at one node (the invariant checker's bound)."""
        return self.node_cpus[node].capacity

    def participant_nodes(self, tx):
        """Remote nodes a transaction touched (commit-protocol seam).

        The serving node of every read plus every copy of every write,
        sorted, home excluded. Without placement tables (one site) no
        remote participant exists, so a 2PC commit protocol composed
        with the model degenerates to the atomic commit point.
        """
        replicas = self._replicas
        if replicas is None:
            return ()
        home = tx.id % self.nodes
        read_from = self._read_from[home]
        touched = {read_from[obj] for obj in tx.read_set}
        for obj in tx.write_set:
            touched.update(replicas[obj])
        touched.discard(home)
        return sorted(touched)

    def network_leg(self, tx, src, dst):
        """Send one cross-node message; return the event it arrives at.

        A message from ``src`` to ``dst`` waits an exponential
        ``params.network_delay`` drawn from the dedicated
        ``resources.network`` stream (the interconnect is modeled as a
        delay, not a queued server; delays are drawn in batches, the
        same values in the same order as one at a time). The call
        counts the message, emits ``msg_send`` when the bus's
        ``wants_msg`` flag says someone handles it, and returns the
        leg's :class:`~repro.des.Timeout`, or None for a zero delay.
        The caller yields the event and then emits ``msg_recv`` itself
        when ``wants_msg`` is set, so a leg interrupted in flight sends
        without receiving. Local messages (``src == dst``) are free:
        None, nothing counted, nothing drawn — which is what keeps
        one-node topologies bit-identical to the single-site models.
        """
        if src == dst:
            return None
        bus = self.bus
        if bus is not None and bus.wants_msg:
            bus.emit(MSG_SEND, tx=tx, src=src, dst=dst)
        self.messages_sent += 1
        mean = self.params.network_delay
        if mean <= 0.0:
            return None
        at = self._network_draw_at
        draws = self._network_draws
        if at >= len(draws):
            rng = self._network_rng
            if rng is None:
                self._network_rng = rng = self._streams.stream(
                    "resources.network"
                )
            self._network_draws = draws = rng.exponential_many(
                mean, _NETWORK_DRAW_BATCH
            )
            at = 0
        self._network_draw_at = at + 1
        delay = draws[at]
        self.network_time += delay
        return Timeout(self.env, delay)

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

    # -- placement and buffer mechanics --------------------------------------

    def _disk_at(self, node, obj):
        """Index in ``self.disks`` of the disk serving ``obj`` at ``node``.

        The placed spindle when ``_disk_of`` is set, else the next
        uniform pick among the node's disks from the disk sequence
        (shared across a sweep's points when the model replays a
        workload tape, else the model's own). One disk per node leaves
        nothing to choose: the stream, which feeds nothing else, is
        not drawn.
        """
        count = self.disks_per_node
        disk_of = self._disk_of
        if disk_of is not None and obj is not None:
            return node * count + disk_of[obj]
        if count == 1:
            return node
        at = self._disk_pick_at
        picks = self._disk_picks
        if at == len(picks):
            self._disk_chunk = chunk = self._disk_chunk + 1
            self._disk_picks = picks = self._disk_sequence.chunk(chunk)
            at = 0
        self._disk_pick_at = at + 1
        return node * count + picks[at]

    def _probe(self, node, obj):
        """True if reading ``obj`` hits ``node``'s buffer pool.

        Counts the hit or the miss. The fixed policy draws on every
        probe. Under LRU, ``obj`` of None (object-blind callers) never
        hits: there is no identity to find.
        """
        hit_rng = self._hit_rng
        if hit_rng is not None:
            hit = hit_rng.bernoulli(self._hit_ratio)
        elif obj is None:
            hit = False
        else:
            lru = self._lru[node]
            hit = obj in lru
            if hit:
                lru.move_to_end(obj)
        if hit:
            self.buffer_hits += 1
        else:
            self.buffer_misses += 1
        return hit

    def _fill(self, node, obj):
        """Make ``obj`` resident at ``node`` after a completed transfer."""
        lru_pools = self._lru
        if lru_pools is None or obj is None:
            return
        lru = lru_pools[node]
        lru[obj] = None
        lru.move_to_end(obj)
        if len(lru) > self.buffer_capacity:
            lru.popitem(last=False)

    # -- service primitives -------------------------------------------------

    def cpu_service(self, tx, amount, priority=OBJECT_PRIORITY):
        """Hold one CPU server of the home node for ``amount`` seconds.

        Under an injected CPU degradation window the demand is
        multiplied by the factor in effect when service *starts* (a
        window boundary does not stretch service already in progress).
        """
        if amount <= 0.0:
            return
        if self.faults is not None:
            amount *= self.faults.cpu_factor
        home = tx.id % self.nodes
        bus = self.bus
        cpu = self.node_cpus[home]
        watch = bus is not None and bus.wants_resource and _Watch(
            bus, tx, "cpu", node=home)
        service = cpu.serve(amount, priority, self.cpu_tracker, watch)
        try:
            yield service
        finally:
            tx.attempt_cpu_time += cpu.finish(service)

    # -- the pipeline ------------------------------------------------------------

    def read_access(self, tx, obj=None):
        """Read one object through the pipeline.

        Request leg out to the node serving ``obj`` (the nearest copy),
        a buffer probe there, ``obj_io`` of disk unless the probe hit,
        the fill, the data leg back, then ``obj_cpu`` of CPU at the
        transaction's home node. A local read skips both legs. With
        fault injection, the access may fault first (raising
        RestartTransaction before any service is consumed).
        """
        faults = self.faults
        if faults is not None:
            faults.check_access_fault(tx)
        bus = self.bus
        watched = bus is not None and bus.wants_resource
        params = self.params
        read_from = self._read_from
        if read_from is None:
            home = node = 0
        else:
            home = tx.id % self.nodes
            node = home if obj is None else read_from[home][obj]
            if node != home:
                leg = self.network_leg(tx, home, node)
                if leg is not None:
                    yield leg
                if bus is not None and bus.wants_msg:
                    bus.emit(MSG_RECV, tx=tx, src=home, dst=node)

        buffered = self._buffered
        if buffered and self._probe(node, obj):
            if bus is not None and bus.wants_buffer:
                bus.emit(BUFFER_HIT, tx=tx, obj=obj, node=node)
        else:
            if buffered and bus is not None and bus.wants_buffer:
                bus.emit(BUFFER_MISS, tx=tx, obj=obj, node=node)
            amount = params.obj_io
            if amount > 0.0:
                disk_index = self._disk_at(node, obj)
                disk = self.disks[disk_index]
                watch = watched and _Watch(bus, tx, "disk", disk=disk_index)
                service = disk.serve(amount, 0, self.disk_tracker, watch)
                try:
                    yield service
                finally:
                    tx.attempt_disk_time += disk.finish(service)
            if buffered:
                # Resident only once the transfer completed: an abort
                # mid-service leaves the cache unchanged.
                self._fill(node, obj)

        if node != home:
            leg = self.network_leg(tx, node, home)
            if leg is not None:
                yield leg
            if bus is not None and bus.wants_msg:
                bus.emit(MSG_RECV, tx=tx, src=node, dst=home)

        amount = params.obj_cpu
        if amount <= 0.0:
            return
        if faults is not None:
            amount *= faults.cpu_factor
        cpu = self.node_cpus[home]
        watch = watched and _Watch(bus, tx, "cpu", node=home)
        service = cpu.serve(amount, OBJECT_PRIORITY, self.cpu_tracker, watch)
        try:
            yield service
        finally:
            tx.attempt_cpu_time += cpu.finish(service)

    def write_request_work(self, tx, obj=None):
        """CPU work at write-request time (updates are deferred).

        Subject to transient access faults like reads; deferred updates
        at commit time are not (past the commit point the transaction
        can no longer abort).
        """
        faults = self.faults
        if faults is not None:
            faults.check_access_fault(tx)
        amount = self.params.obj_cpu
        if amount <= 0.0:
            return
        if faults is not None:
            amount *= faults.cpu_factor
        home = tx.id % self.nodes
        bus = self.bus
        cpu = self.node_cpus[home]
        watch = bus is not None and bus.wants_resource and _Watch(
            bus, tx, "cpu", node=home)
        service = cpu.serve(amount, OBJECT_PRIORITY, self.cpu_tracker, watch)
        try:
            yield service
        finally:
            tx.attempt_cpu_time += cpu.finish(service)

    def deferred_update(self, tx, obj=None):
        """Write one deferred update to every copy of ``obj`` at commit.

        Per copy: a message leg shipping the write to a remote copy's
        node, the write-back charged in full as ``obj_io`` of disk
        there, then the written page becomes resident in that node's
        buffer. Acknowledgements are not charged: past the commit point
        the outcome is decided (the commit *decision* legs are the
        commit protocol's job).
        """
        bus = self.bus
        watched = bus is not None and bus.wants_resource
        amount = self.params.obj_io
        buffered = self._buffered
        replicas = self._replicas
        if replicas is None:
            home = 0
            nodes = _ONE_SITE
        else:
            home = tx.id % self.nodes
            nodes = (home,) if obj is None else replicas[obj]
        for node in nodes:
            if node != home:
                leg = self.network_leg(tx, home, node)
                if leg is not None:
                    yield leg
                if bus is not None and bus.wants_msg:
                    bus.emit(MSG_RECV, tx=tx, src=home, dst=node)
            if buffered:
                self.buffer_writebacks += 1
                if bus is not None and bus.wants_buffer:
                    bus.emit(BUFFER_WRITEBACK, tx=tx, obj=obj, node=node)
            if amount > 0.0:
                disk_index = self._disk_at(node, obj)
                disk = self.disks[disk_index]
                watch = watched and _Watch(bus, tx, "disk", disk=disk_index)
                service = disk.serve(amount, 0, self.disk_tracker, watch)
                try:
                    yield service
                finally:
                    tx.attempt_disk_time += disk.finish(service)
            if buffered:
                self._fill(node, obj)

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

    def _buffer_counts(self):
        """The counter fields every ``buffer_summary`` reports."""
        hits, misses = self.buffer_hits, self.buffer_misses
        probes = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / probes if probes else None,
            "writebacks": self.buffer_writebacks,
        }

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

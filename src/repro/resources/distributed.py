"""The ``distributed`` resource model: a sharded multi-site tier.

The paper's physical model is a single site: one pooled CPU queue and
one set of disks. This model generalizes it to ``params.nodes`` sites,
each with its own CPU pool and disk set (``num_cpus``/``num_disks``
become *per-node* counts), with the database sharded across the nodes
by the same placement machinery the ``skewed_disks`` model uses for
spindles (``params.disk_placement``):

* ``contiguous`` — object ids map to nodes in db_size/nodes runs
  (``obj * nodes // db_size``), so a hotspot workload's hot region
  lands on the low-numbered nodes — data skew becomes *site* skew;
* ``striped`` — round-robin (``obj % nodes``): perfect sharding, the
  control arm.

Cross-node traffic is an explicit service stage (after the cloud-DB
channel-modeling direction in PAPERS.md): every message between two
distinct nodes waits an exponential ``params.network_delay`` drawn from
the dedicated ``resources.network`` stream and emits
``msg_send``/``msg_recv`` bus events. A remote read costs a request leg
to the serving node, the disk transfer there, and a data leg back; CPU
processing happens at the transaction's home node
(``tx.id % nodes`` — deterministic, no extra draws).

``params.replication_factor`` copies each object onto the ring
successors of its primary node. Reads go to the *nearest* copy by ring
distance from the home node (a local copy means no network legs at
all); commit-time deferred updates write every copy, shipping one
message per remote replica.

Placement is a pure function of ``(obj, home)``, so it is tabulated
once at construction: a list indexed by object id holding each
object's replica list (primary first; objects with the same primary
share one list), and per home node a list indexed by object id holding
the replica that home reads from. An access is then two list indexings
instead of a ring walk and a ``min`` (object ids lie in
``[0, db_size)``, as every workload draws them).

The service composites are flat: ``read_access`` and
``deferred_update`` inline the disk and CPU service bodies (as the
base model's ``read_access`` does) and call ``network_leg`` only for a
remote node, so a local access runs one generator, the same as a
single-site one. Per-message bus events (``msg_send``/``msg_recv``,
and the commit protocol's ``2pc_prepare``/``2pc_vote``) are built only
when the bus's ``wants_msg`` flag says a subscriber handles them; the
message *accounting* (``network_summary``) never depends on observers.

``params.buffer_capacity`` (explicitly set) composes a per-node LRU
buffer pool with the sharded tier, reusing the ``buffered`` model's
mechanics: each node caches the objects *it* served, probes emit the
same ``buffer_hit``/``buffer_miss``/``buffer_writeback`` events, and
the accounting rides the same
:class:`~repro.obs.BufferAccountingSubscriber`. Left None (the
default), no cache exists — which is one of the properties that make a
one-node topology with zero network delay *bit-identical* to the
``classic`` model, the anchor the golden-parity suite pins:

* one node means every message is local, so no network legs fire and
  the ``resources.network`` stream is never drawn;
* the within-node disk choice draws from the same
  ``physical.disk_choice`` stream with the same bounds
  (``num_disks - 1``) in the same order as the classic model;
* the per-node CPU pool at node 0 *is* the classic pooled CPU.

Fault support: ``self.disks`` is the flattened node-major disk list, so
``disk_fault_targets`` exposes every spindle of every node to the fault
injector — crashing node *n*'s disks is a disk-fault spec against
indices ``n*num_disks .. (n+1)*num_disks-1`` (labels in
``describe_resources``).
"""

from collections import OrderedDict

from repro.des import BusyTracker, Resource
from repro.des.events import Timeout
from repro.obs.bus import InstrumentationBus
from repro.obs.events import (
    BUFFER_HIT,
    BUFFER_MISS,
    BUFFER_WRITEBACK,
    RESOURCE_BUSY,
    RESOURCE_IDLE,
)
from repro.obs.subscribers import BufferAccountingSubscriber
from repro.resources.base import (
    _DISK_PICK_BATCH,
    OBJECT_PRIORITY,
    ResourceModel,
)

PLACEMENT_STRIPED = "striped"


class DistributedResourceModel(ResourceModel):
    """N sharded sites with per-message network legs and replica reads."""

    name = "distributed"

    def __init__(self, env, params, streams, bus=None):
        if params.num_cpus is None or params.num_disks is None:
            raise ValueError(
                "resource_model='distributed' requires finite per-node "
                "resources (num_cpus and num_disks must not be None: "
                "sharding an infinite server pool is meaningless)"
            )
        super().__init__(env, params, streams, bus=bus)
        if params.buffer_capacity is not None:
            if params.buffer_policy != "lru":
                raise ValueError(
                    "the distributed model's per-node buffer pools are "
                    "exact LRU; buffer_policy='fixed' is not composable "
                    "with sharding (use resource_model='buffered')"
                )
            #: One LRU directory per node, each caching the objects the
            #: node served, with ``buffer_capacity`` pages per node.
            self._node_lru = [OrderedDict() for _ in range(self.nodes)]
            if self.bus is None:
                self.bus = InstrumentationBus(env)
            self.accounting = self.bus.attach(BufferAccountingSubscriber())
        else:
            self._node_lru = None
            self.accounting = None

    # -- construction --------------------------------------------------------

    def _build_resources(self):
        env = self.env
        params = self.params
        self.nodes = params.nodes
        num_cpus, num_disks = params.num_cpus, params.num_disks
        self.disks_per_node = num_disks
        self._cpus_per_node = num_cpus
        self._striped = params.disk_placement == PLACEMENT_STRIPED
        self._replication = params.replication_factor
        #: One CPU pool per node; node 0's pool doubles as ``self.cpu``
        #: so placement-blind callers (and one-node parity) see the
        #: classic single pool.
        self.node_cpus = [
            Resource(env, capacity=num_cpus) for _ in range(self.nodes)
        ]
        self.cpu = self.node_cpus[0]
        #: Flattened node-major disk list: node n's disks occupy
        #: indices [n*disks_per_node, (n+1)*disks_per_node).
        self.disks = [
            Resource(env, capacity=1)
            for _ in range(self.nodes * num_disks)
        ]
        self.cpu_tracker = BusyTracker(
            env, "cpu", self.nodes * num_cpus
        )
        self.disk_tracker = BusyTracker(
            env, "disk", self.nodes * num_disks
        )
        self._build_placement()

    def _build_placement(self):
        """Tabulate ``_replicas[obj]`` and ``_read_from[home][obj]``.

        Both depend on the object only through its primary node, so the
        replica lists and nearest copies are computed per primary and
        the per-object rows share them.
        """
        nodes = self.nodes
        ring = [
            [(primary + i) % nodes for i in range(self._replication)]
            for primary in range(nodes)
        ]
        primaries = [self.node_of(obj) for obj in range(self.params.db_size)]
        self._replicas = [ring[primary] for primary in primaries]
        self._read_from = []
        for home in range(nodes):
            nearest = [
                min(copies, key=lambda node: (node - home) % nodes)
                for copies in ring
            ]
            self._read_from.append(
                [nearest[primary] for primary in primaries]
            )

    # -- node addressing -----------------------------------------------------

    def node_of(self, obj):
        """The node whose shard holds the primary copy of ``obj``."""
        if obj is None:
            return 0
        if self._striped:
            return obj % self.nodes
        return obj * self.nodes // self.params.db_size

    def home_node(self, tx):
        """The node a transaction originates at (deterministic)."""
        if tx is None:
            return 0
        return tx.id % self.nodes

    def replica_nodes(self, obj):
        """Every node holding a copy of ``obj`` (primary first).

        The placement table's shared row: callers must not mutate it.
        ``obj=None`` is placed like object 0 (both sit on node 0).
        """
        return self._replicas[0 if obj is None else obj]

    def read_node(self, obj, home):
        """The replica ``home`` reads ``obj`` from: the nearest copy.

        Ring distance from the home node breaks ties deterministically
        (all distances are distinct mod N); a local copy wins with
        distance 0, making the read free of network legs.
        """
        return self._read_from[home][0 if obj is None else obj]

    def participant_nodes(self, tx):
        """Remote nodes a transaction touched (sorted, home excluded).

        The commit-protocol seam's participant set: the serving node of
        every read plus every replica of every write. Deterministic —
        placement and home are pure functions, no draws.
        """
        home = self.home_node(tx)
        read_from = self._read_from[home]
        touched = {read_from[obj] for obj in tx.read_set}
        replicas = self._replicas
        for obj in tx.write_set:
            touched.update(replicas[obj])
        touched.discard(home)
        return sorted(touched)

    def cpu_capacity_at(self, node):
        return self._cpus_per_node

    def disk_label(self, index):
        """Human-readable node-qualified label of one global disk."""
        per_node = self.disks_per_node
        return f"n{index // per_node}.d{index % per_node}"

    # -- service primitives --------------------------------------------------

    def _pick_disk(self):
        """A uniformly chosen *local* disk index (batched draws).

        Same stream, same batching as the classic model, but bounded by
        the per-node disk count — identical bounds (and therefore
        identical draws) at one node, where disks_per_node is the whole
        disk list.
        """
        at = self._disk_pick_at
        picks = self._disk_picks
        if at >= len(picks):
            self._disk_picks = picks = self._disk_rng.uniform_int_many(
                0, self.disks_per_node - 1, _DISK_PICK_BATCH
            )
            at = 0
        self._disk_pick_at = at + 1
        return picks[at]

    def cpu_service(self, tx, amount, priority=OBJECT_PRIORITY):
        """Hold one CPU server of the transaction's home node."""
        if amount <= 0.0:
            return
        if self.faults is not None:
            amount *= self.faults.cpu_factor
        node = self.home_node(tx)
        env = self.env
        bus = self.bus
        tracker = self.cpu_tracker
        pool = self.node_cpus[node]
        request = pool.request(priority=priority)
        try:
            yield request
            tracker.acquire()
            if bus is not None and bus.wants_resource:
                bus.emit(RESOURCE_BUSY, resource="cpu", node=node, tx=tx)
            start = env._now
            try:
                yield Timeout(env, amount)
            finally:
                tracker.release()
                tx.attempt_cpu_time += env._now - start
                if bus is not None and bus.wants_resource:
                    bus.emit(
                        RESOURCE_IDLE, resource="cpu", node=node, tx=tx
                    )
        finally:
            pool.release(request)

    # -- buffer mechanics (per-node LRU, optional) ---------------------------

    def _probe(self, node, obj):
        """True if ``node``'s cache holds ``obj`` (False without caches)."""
        lru_pools = self._node_lru
        if lru_pools is None or obj is None:
            return False
        lru = lru_pools[node]
        if obj in lru:
            lru.move_to_end(obj)
            return True
        return False

    def _fill(self, node, obj):
        """Make ``obj`` resident at ``node`` after a completed transfer."""
        lru_pools = self._node_lru
        if lru_pools is None or obj is None:
            return
        lru = lru_pools[node]
        lru[obj] = None
        lru.move_to_end(obj)
        if len(lru) > self.params.buffer_capacity:
            lru.popitem(last=False)

    # -- service composites --------------------------------------------------

    def read_access(self, tx, obj=None):
        """Read one object off its nearest replica, process at home.

        Request leg out, disk (unless a per-node buffer hit) at the
        serving node, data leg back, CPU at the home node. Local reads
        (one node, or a co-resident replica) skip both legs entirely.
        The disk and CPU bodies are inlined: the yields, their order and
        the interrupt-time accounting are exactly those of
        ``disk_service_at`` and ``cpu_service``.
        """
        faults = self.faults
        if faults is not None:
            faults.check_access_fault(tx)
        env = self.env
        bus = self.bus
        params = self.params
        home = tx.id % self.nodes
        node = home if obj is None else self._read_from[home][obj]
        if node != home:
            yield from self.network_leg(tx, home, node)

        lru_pools = self._node_lru
        if lru_pools is not None and self._probe(node, obj):
            bus.emit(BUFFER_HIT, tx=tx, obj=obj, node=node)
        else:
            if lru_pools is not None:
                bus.emit(BUFFER_MISS, tx=tx, obj=obj, node=node)
            amount = params.obj_io
            if amount > 0.0:
                disk_index = node * self.disks_per_node + self._pick_disk()
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
            if lru_pools is not None:
                self._fill(node, obj)

        if node != home:
            yield from self.network_leg(tx, node, home)

        amount = params.obj_cpu
        if amount <= 0.0:
            return
        if faults is not None:
            amount *= faults.cpu_factor
        tracker = self.cpu_tracker
        pool = self.node_cpus[home]
        request = pool.request(priority=OBJECT_PRIORITY)
        try:
            yield request
            tracker.acquire()
            if bus is not None and bus.wants_resource:
                bus.emit(RESOURCE_BUSY, resource="cpu", node=home, tx=tx)
            start = env._now
            try:
                yield Timeout(env, amount)
            finally:
                tracker.release()
                tx.attempt_cpu_time += env._now - start
                if bus is not None and bus.wants_resource:
                    bus.emit(
                        RESOURCE_IDLE, resource="cpu", node=home, tx=tx
                    )
        finally:
            pool.release(request)

    def deferred_update(self, tx, obj=None):
        """Write one deferred update to every replica at commit time.

        Each remote replica costs one message leg (shipping the write)
        before its disk transfer; acknowledgements are not charged —
        past the commit point the outcome is decided, so the writer
        need not wait on them (the commit *decision* legs are the
        commit protocol's job). The disk body is inlined as in
        :meth:`read_access`.
        """
        env = self.env
        bus = self.bus
        amount = self.params.obj_io
        lru_pools = self._node_lru
        home = tx.id % self.nodes
        nodes = (home,) if obj is None else self._replicas[obj]
        for node in nodes:
            if node != home:
                yield from self.network_leg(tx, home, node)
            if lru_pools is not None:
                bus.emit(BUFFER_WRITEBACK, tx=tx, obj=obj, node=node)
            if amount > 0.0:
                disk_index = node * self.disks_per_node + self._pick_disk()
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
            if lru_pools is not None:
                self._fill(node, obj)

    # -- fault, cache and labelling hooks ------------------------------------

    def buffer_summary(self):
        accounting = self.accounting
        if accounting is None:
            return None
        return {
            "policy": "lru",
            "capacity": self.params.buffer_capacity,
            "per_node_capacity": self.params.buffer_capacity,
            "hits": accounting.hits,
            "misses": accounting.misses,
            "hit_ratio": accounting.hit_ratio,
            "writebacks": accounting.writebacks,
        }

    def describe_resources(self):
        params = self.params
        return {
            "model": self.name,
            "nodes": self.nodes,
            "cpus": f"{self.nodes}x{self._cpus_per_node}",
            "disks": f"{self.nodes}x{self.disks_per_node}",
            "placement": params.disk_placement,
            "replication": self._replication,
            "network_delay": params.network_delay,
            "disk_labels": [
                self.disk_label(i) for i in range(len(self.disks))
            ],
        }

"""The ``distributed`` resource model: a sharded multi-site tier.

The paper's physical model is a single site: one pooled CPU queue and
one set of disks. This model generalizes it to ``params.nodes`` sites,
each with its own CPU pool and disk set (``num_cpus``/``num_disks``
become *per-node* counts), with the database sharded across the nodes
by the placement formula the ``skewed_disks`` model uses for spindles
(:func:`~repro.resources.base.placement_table`, selected by
``params.disk_placement``): ``contiguous`` id runs put a hotspot
workload's hot region on the low-numbered nodes — data skew becomes
*site* skew — and ``striped`` round-robin is perfect sharding, the
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

The model is a configuration of the one resource pipeline
(:mod:`repro.resources.base`): per-node CPU pools and disk sets, these
two tables, and an optional buffer. The pipeline calls
``network_leg`` only for a remote node. The leg is a plain call that
counts the message and returns one :class:`~repro.des.Timeout` for
the pipeline to yield, so a remote access, like a local one, runs one
generator; the delays come from the network stream in batches (the
same values in the same order as one draw at a time). Per-message bus
events (``msg_send``/``msg_recv``, and the commit protocol's
``2pc_prepare``/``2pc_vote``) are built only when the bus's
``wants_msg`` flag says a subscriber handles them; the message
*accounting* (``network_summary``) never depends on observers.

``params.buffer_capacity`` (explicitly set) composes a per-node LRU
buffer pool with the sharded tier — the same probe and fill the
``buffered`` model runs: each node caches the objects *it* served, and
the model counts hits, misses and write-backs itself, building
``buffer_hit``/``buffer_miss``/``buffer_writeback`` events only under
the bus's ``wants_buffer`` flag. Left None (the default), no cache
exists — which is one of the properties that make a
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

from repro.resources.base import ResourceModel, placement_table


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
        self._build_placement()
        if params.buffer_hit_ratio is not None:
            raise ValueError(
                "the distributed model's per-node buffer pools are "
                "exact LRU; a fixed buffer_hit_ratio is not composable "
                "with sharding (use resource_model='buffered')"
            )
        if params.buffer_capacity is not None:
            self._attach_buffer(params.buffer_capacity)

    # -- construction --------------------------------------------------------

    def _build_resources(self):
        """One CPU pool and one disk set per node."""
        self.nodes = self.params.nodes
        super()._build_resources()

    def _build_placement(self):
        """Tabulate ``_replicas[obj]`` and ``_read_from[home][obj]``.

        Both depend on the object only through its primary node, so the
        replica lists and nearest copies are computed per primary and
        the per-object rows share them.
        """
        nodes = self.nodes
        ring = [
            [(primary + i) % nodes
             for i in range(self.params.replication_factor)]
            for primary in range(nodes)
        ]
        primaries = placement_table(nodes, self.params)
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

    def disk_label(self, index):
        """Human-readable node-qualified label of one global disk."""
        per_node = self.disks_per_node
        return f"n{index // per_node}.d{index % per_node}"

    # -- cache and labelling hooks -------------------------------------------

    def buffer_summary(self):
        if not self._buffered:
            return None
        return {
            "policy": "lru",
            "capacity": self.buffer_capacity,
            "per_node_capacity": self.buffer_capacity,
            **self._buffer_counts(),
        }

    def describe_resources(self):
        params = self.params
        return {
            "model": self.name,
            "nodes": self.nodes,
            "cpus": f"{self.nodes}x{params.num_cpus}",
            "disks": f"{self.nodes}x{self.disks_per_node}",
            "placement": params.disk_placement,
            "replication": params.replication_factor,
            "network_delay": params.network_delay,
            "disk_labels": [
                self.disk_label(i) for i in range(len(self.disks))
            ],
        }

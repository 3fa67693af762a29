"""Tests for the ``distributed`` resource model (sharded multi-site).

The anchor is golden parity: a one-node topology with zero network
delay is *bit-identical* to the ``classic`` model — same digests the
pre-refactor code produced (see test_golden_parity). On top of that:
sharding/placement edge cases, replica addressing, network accounting,
per-node buffers, and fault-injection targets.
"""

import random

import pytest

from repro.core.params import SimulationParameters
from repro.core.simulation import run_simulation
from repro.core.transaction import Transaction
from repro.des import Environment, StreamFactory
from repro.resources import DistributedResourceModel
from repro.resources.base import placement_table
from tests.resources.test_golden_parity import (
    FINITE,
    GOLDEN,
    RUN,
    _fingerprint,
)


def build(nodes=4, num_cpus=1, num_disks=2, **overrides):
    params = SimulationParameters.table2(
        resource_model="distributed", nodes=nodes,
        num_cpus=num_cpus, num_disks=num_disks, **overrides
    )
    env = Environment()
    streams = StreamFactory(7)
    return DistributedResourceModel(env, params, streams)


def primaries(model):
    """The node holding each object's primary copy."""
    return placement_table(model.nodes, model.params)


def tx(tx_id=0, read_set=(1,), write_set=()):
    return Transaction(
        tx_id, terminal_id=0, read_set=tuple(read_set),
        write_set=frozenset(write_set),
    )


class TestGoldenParityAtOneNode:
    """nodes=1, network_delay=0 reproduces the classic digests exactly."""

    @pytest.mark.parametrize(
        "algorithm", ["blocking", "immediate_restart", "optimistic"]
    )
    def test_one_node_matches_classic_golden(self, algorithm):
        params = FINITE.with_changes(
            resource_model="distributed", nodes=1
        )
        result = run_simulation(params, algorithm=algorithm, run=RUN)
        assert _fingerprint(result) == GOLDEN[(algorithm, "finite")]
        # ...and the totals carry no network key: zero messages fired.
        assert "network" not in result.totals

    def test_striped_equals_contiguous_at_one_node(self):
        """With one node both placements are the identity map."""
        base = FINITE.with_changes(resource_model="distributed", nodes=1)
        contiguous = run_simulation(base, algorithm="blocking", run=RUN)
        striped = run_simulation(
            base.with_changes(disk_placement="striped"),
            algorithm="blocking", run=RUN,
        )
        assert _fingerprint(contiguous) == _fingerprint(striped)
        assert _fingerprint(striped) == GOLDEN[("blocking", "finite")]

    def test_infinite_resources_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            build(num_cpus=None, num_disks=None)


class TestSharding:
    def test_contiguous_covers_all_nodes_when_not_divisible(self):
        # db_size=1000 over 3 nodes: 1000 % 3 != 0; every node still
        # owns a non-empty contiguous range and the map is monotone.
        model = build(nodes=3)
        seen = primaries(model)
        assert set(seen) == {0, 1, 2}
        assert seen == sorted(seen)
        counts = [seen.count(node) for node in range(3)]
        assert sum(counts) == 1000
        assert max(counts) - min(counts) <= 1

    def test_striped_round_robin(self):
        model = build(nodes=4, disk_placement="striped")
        assert primaries(model)[:8] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_hotspot_object_lands_on_one_node(self):
        # Contiguous placement: the low-id hot region is node 0's
        # shard, so a single-object hotspot hammers exactly one site.
        model = build(nodes=4)
        assert primaries(model)[0] == 0
        assert primaries(model)[model.params.db_size - 1] == 3

    def test_home_node_is_deterministic(self):
        model = build(nodes=4)
        assert model.home_node(tx(5)) == 1
        assert model.home_node(tx(8)) == 0
        assert model.home_node(None) == 0


class TestReplicas:
    def test_replica_ring_successors(self):
        model = build(nodes=4, replication_factor=2)
        primary = primaries(model)[999]
        assert model._replicas[999] == [primary, (primary + 1) % 4]

    def test_read_prefers_local_copy(self):
        model = build(nodes=4, replication_factor=2)
        obj = 0  # primary on node 0, replica on node 1
        assert model._replicas[obj] == [0, 1]
        assert model._read_from[0][obj] == 0
        assert model._read_from[1][obj] == 1
        # A node holding no copy goes to the nearest one on the ring.
        assert model._read_from[3][obj] == 0

    def test_participants_exclude_home_and_sort(self):
        model = build(nodes=4, replication_factor=2)
        db = model.params.db_size
        # tx at home 0 reading its own shard, writing the last shard.
        t = tx(4, read_set=(0, db - 1), write_set=(db - 1,))
        assert model.home_node(t) == 0
        # obj 0 reads locally; obj db-1's write replicas are {3, 0},
        # and its read lands on the home-resident copy — so the only
        # remote participant is the primary of the written object.
        assert model.participant_nodes(t) == [3]
        t_home3 = tx(3, read_set=(0, db - 1), write_set=(db - 1,))
        assert model.home_node(t_home3) == 3
        # write replicas {3, 0}; read of obj 0 from nearest copy (0).
        assert model.participant_nodes(t_home3) == [0]


#: (nodes, replication factor) for every valid pair with 1-5 nodes.
TOPOLOGIES = [
    (nodes, rf) for nodes in range(1, 6) for rf in range(1, nodes + 1)
]
#: A prime database size, so no node count above one divides it.
ODD_DB = 61


def reference_replicas(obj, nodes, rf, striped):
    """Ring successors of the primary, straight from the formulas."""
    primary = obj % nodes if striped else obj * nodes // ODD_DB
    return [(primary + i) % nodes for i in range(rf)]


def reference_read_node(obj, home, nodes, rf, striped):
    """The copy at the least ring distance from ``home``."""
    return min(
        reference_replicas(obj, nodes, rf, striped),
        key=lambda node: (node - home) % nodes,
    )


class TestPlacementTables:
    """The precomputed placement tables equal the ring formulas."""

    @pytest.mark.parametrize("placement", ["contiguous", "striped"])
    @pytest.mark.parametrize("nodes,rf", TOPOLOGIES)
    def test_tables_match_ring_formulas(self, nodes, rf, placement):
        model = build(
            nodes=nodes, replication_factor=rf, db_size=ODD_DB,
            disk_placement=placement,
        )
        striped = placement == "striped"
        for obj in range(ODD_DB):
            assert model._replicas[obj] == reference_replicas(
                obj, nodes, rf, striped
            )
            for home in range(nodes):
                assert model._read_from[home][obj] == reference_read_node(
                    obj, home, nodes, rf, striped
                )

    @pytest.mark.parametrize("placement", ["contiguous", "striped"])
    @pytest.mark.parametrize("nodes,rf", TOPOLOGIES)
    def test_participants_match_ring_formulas(self, nodes, rf, placement):
        model = build(
            nodes=nodes, replication_factor=rf, db_size=ODD_DB,
            disk_placement=placement,
        )
        striped = placement == "striped"
        rng = random.Random(nodes * 10 + rf)
        for tx_id in range(40):
            reads = rng.sample(range(ODD_DB), rng.randint(1, 8))
            writes = [obj for obj in reads if rng.random() < 0.4]
            t = tx(tx_id, read_set=reads, write_set=writes)
            home = tx_id % nodes
            touched = {
                reference_read_node(obj, home, nodes, rf, striped)
                for obj in reads
            }
            for obj in writes:
                touched.update(reference_replicas(obj, nodes, rf, striped))
            touched.discard(home)
            assert model.participant_nodes(t) == sorted(touched)


class TestNetworkAccounting:
    def test_multi_node_run_reports_messages(self):
        params = FINITE.with_changes(
            resource_model="distributed", nodes=4, network_delay=0.002,
        )
        result = run_simulation(params, algorithm="blocking", run=RUN)
        network = result.totals["network"]
        assert network["messages"] > 0
        assert network["network_time"] > 0.0
        assert network["mean_delay"] == pytest.approx(
            network["network_time"] / network["messages"]
        )

    def test_zero_delay_still_counts_messages(self):
        params = FINITE.with_changes(
            resource_model="distributed", nodes=4,
        )
        result = run_simulation(params, algorithm="blocking", run=RUN)
        network = result.totals["network"]
        assert network["messages"] > 0
        assert network["network_time"] == 0.0

    def test_local_leg_is_free(self):
        model = build(nodes=4, network_delay=1.0)
        assert model.network_leg(tx(0), 2, 2) is None
        assert model.messages_sent == 0
        assert model._network_rng is None
        assert model.network_summary() is None


class TestPerNodeBuffers:
    def test_buffer_summary_reports_per_node_pools(self):
        params = FINITE.with_changes(
            resource_model="distributed", nodes=2, buffer_capacity=50,
        )
        result = run_simulation(params, algorithm="blocking", run=RUN)
        buffer = result.totals["buffer"]
        assert buffer["policy"] == "lru"
        assert buffer["per_node_capacity"] == 50
        assert buffer["hits"] + buffer["misses"] > 0

    def test_fixed_policy_rejected(self):
        with pytest.raises(ValueError, match="LRU"):
            build(
                nodes=2, buffer_capacity=10, buffer_policy="fixed",
                buffer_hit_ratio=0.5,
            )


class TestFaultTargetsAndLabels:
    def test_every_spindle_of_every_node_is_a_target(self):
        model = build(nodes=4, num_disks=2)
        targets = model.disk_fault_targets()
        assert len(targets) == 8
        assert [index for index, _ in targets] == list(range(8))

    def test_node_qualified_disk_labels(self):
        model = build(nodes=2, num_disks=2)
        described = model.describe_resources()
        assert described["model"] == "distributed"
        assert described["nodes"] == 2
        assert described["cpus"] == "2x1"
        assert described["disks"] == "2x2"
        assert described["disk_labels"] == [
            "n0.d0", "n0.d1", "n1.d0", "n1.d1",
        ]

    def test_node_crash_scenario_runs(self):
        """Disk faults execute against the node-major spindle list."""
        from repro.faults import DiskFaultSpec, FaultSpec

        params = FINITE.with_changes(
            resource_model="distributed", nodes=2,
            faults=FaultSpec(disk=DiskFaultSpec(mttf=5.0, mttr=1.0)),
        )
        result = run_simulation(params, algorithm="blocking", run=RUN)
        assert result.totals["faults"]["disk_failures"] > 0
        assert result.totals["commits"] > 0

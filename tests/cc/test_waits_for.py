"""Tests for waits-for graph construction and cycle detection."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import (
    LockManager,
    LockMode,
    build_waits_for,
    find_any_cycle,
    find_cycle_containing,
    find_deadlock,
    youngest,
)
from repro.cc.errors import REASON_DEADLOCK, RestartTransaction
from repro.des import Environment

from tests.cc.conftest import FakeTx


class TestBuildWaitsFor:
    def test_empty_table(self):
        lm = LockManager(Environment())
        assert build_waits_for(lm) == {}

    def test_simple_wait(self, make_tx):
        lm = LockManager(Environment())
        holder, waiter = make_tx(), make_tx()
        lm.acquire(holder, 1, LockMode.EXCLUSIVE)
        lm.acquire(waiter, 1, LockMode.EXCLUSIVE)
        graph = build_waits_for(lm)
        assert graph == {waiter: {holder}}

    def test_upgrade_deadlock_shape(self, make_tx):
        # Two readers both upgrading: the classic upgrade-upgrade deadlock.
        lm = LockManager(Environment())
        t1, t2 = make_tx(), make_tx()
        lm.acquire(t1, 1, LockMode.SHARED)
        lm.acquire(t2, 1, LockMode.SHARED)
        lm.acquire(t1, 1, LockMode.EXCLUSIVE)
        lm.acquire(t2, 1, LockMode.EXCLUSIVE)
        graph = build_waits_for(lm)
        assert graph[t1] == {t2}
        assert graph[t2] == {t1}
        cycle = find_cycle_containing(graph, t1)
        assert cycle is not None
        assert set(cycle) == {t1, t2}


def _table_scan_graph(lm):
    """The waits-for graph read off a scan of the whole lock table.

    Every live queued request, object by object in table order and
    front to back within a queue, adds its blockers to its transaction's
    edges; a transaction is keyed at its first request that waits for
    someone.
    """
    graph = {}
    for lock in lm._locks.values():
        for request in lock.queue:
            if request.is_dead:
                continue
            blockers = lm.blockers(request)
            if blockers:
                graph.setdefault(request.tx, set()).update(blockers)
    return graph


lock_operations = st.lists(
    st.tuples(
        st.sampled_from(["acquire", "acquire", "acquire", "release", "fail"]),
        st.integers(min_value=0, max_value=7),   # tx index
        st.integers(min_value=0, max_value=3),   # object
        st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]),
    ),
    max_size=60,
)


class TestOnDemandSearch:
    """The on-demand search agrees with a search of the whole graph."""

    @settings(max_examples=300, deadline=None)
    @given(ops=lock_operations)
    def test_matches_full_graph_search(self, ops):
        lm = LockManager(Environment())
        txs = [FakeTx(tx_id=7000 + i) for i in range(8)]
        for kind, tx_index, obj, mode in ops:
            tx = txs[tx_index]
            if kind == "acquire":
                result = lm.acquire(tx, obj, mode)
                if result.event is not None:
                    tx.lock_wait_event = result.event
            elif kind == "release":
                lm.release_all(tx)
            elif (tx.lock_wait_event is not None
                    and not tx.lock_wait_event.triggered):
                # A victim whose wait failed but whose locks are still
                # in the table: its queued request is dead.
                tx.lock_wait_event.fail(
                    RestartTransaction(REASON_DEADLOCK, "test")
                )
            full = _table_scan_graph(lm)
            assert list(build_waits_for(lm).items()) == list(full.items())
            for requester in txs:
                assert (
                    find_deadlock(lm, requester)
                    == find_cycle_containing(full, requester)
                )


class TestFindCycle:
    def test_no_cycle(self):
        a, b, c = FakeTx(), FakeTx(), FakeTx()
        graph = {a: {b}, b: {c}}
        assert find_cycle_containing(graph, a) is None
        assert find_any_cycle(graph) is None

    def test_self_loop_not_possible_but_handled(self):
        a = FakeTx()
        graph = {a: {a}}
        assert find_cycle_containing(graph, a) == [a]

    def test_two_cycle(self):
        a, b = FakeTx(), FakeTx()
        graph = {a: {b}, b: {a}}
        cycle = find_cycle_containing(graph, a)
        assert set(cycle) == {a, b}

    def test_long_cycle(self):
        nodes = [FakeTx() for _ in range(6)]
        graph = {
            nodes[i]: {nodes[(i + 1) % 6]} for i in range(6)
        }
        cycle = find_cycle_containing(graph, nodes[0])
        assert set(cycle) == set(nodes)

    def test_cycle_not_through_start(self):
        a, b, c = FakeTx(), FakeTx(), FakeTx()
        graph = {a: {b}, b: {c}, c: {b}}
        assert find_cycle_containing(graph, a) is None
        assert find_any_cycle(graph) is not None

    def test_start_not_in_graph(self):
        a = FakeTx()
        assert find_cycle_containing({}, a) is None

    @given(st.integers(min_value=0, max_value=2**31), st.data())
    def test_matches_networkx(self, seed, data):
        import random

        rng = random.Random(seed)
        n = rng.randint(2, 10)
        nodes = [FakeTx(tx_id=5000 + i) for i in range(n)]
        graph = {}
        for node in nodes:
            successors = {
                other for other in nodes
                if other is not node and rng.random() < 0.3
            }
            if successors:
                graph[node] = successors
        g = nx.DiGraph()
        g.add_nodes_from(nodes)
        for node, successors in graph.items():
            g.add_edges_from((node, s) for s in successors)
        for start in nodes:
            ours = find_cycle_containing(graph, start)
            in_nx_cycle = any(
                start in component and (
                    len(component) > 1 or g.has_edge(start, start)
                )
                for component in nx.strongly_connected_components(g)
            )
            if ours is None:
                assert not in_nx_cycle
            else:
                assert in_nx_cycle
                # the returned path really is a cycle through start
                assert ours[0] is start
                for u, v in zip(ours, ours[1:]):
                    assert v in graph[u]
                assert start in graph[ours[-1]]


class TestYoungest:
    def test_latest_submit_is_youngest(self):
        old = FakeTx(first_submit_time=1.0)
        young = FakeTx(first_submit_time=9.0)
        assert youngest([old, young]) is young
        assert youngest([young, old]) is young

    def test_tie_breaks_on_id(self):
        a = FakeTx(first_submit_time=5.0, tx_id=1)
        b = FakeTx(first_submit_time=5.0, tx_id=2)
        assert youngest([a, b]) is b

    def test_single(self):
        a = FakeTx()
        assert youngest([a]) is a

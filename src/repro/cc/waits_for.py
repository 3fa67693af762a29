"""Waits-for graph search and cycle detection for deadlock handling.

The paper maintains a waits-for graph of transactions [Gray79] and runs
deadlock detection *each time a transaction blocks*. Each detection
searches from the blocked requester over the live lock-table state: a
node's edges (:meth:`LockManager.waits_for`) are derived the first time
the search reaches it, so only the part of the graph reachable from the
requester is ever built. Nothing is kept between detections — deriving
edges from one source of truth eliminates incremental-maintenance bugs.
"""


def build_waits_for(lock_manager):
    """Adjacency mapping tx -> set of transactions it waits for.

    The whole graph, keyed in the order the transactions' first
    blocked requests appear in the lock table (which decides the cycle
    :func:`find_any_cycle` reports first).
    """
    graph = {}
    for request in lock_manager.all_blocked_requests():
        tx = request.tx
        if tx not in graph and lock_manager.blockers(request):
            graph[tx] = lock_manager.waits_for(tx)
    return graph


def find_deadlock(lock_manager, requester):
    """A waits-for cycle through ``requester`` (see
    :func:`find_cycle_containing`), or None, searching only the part of
    the graph reachable from it.

    A node's edges come from :meth:`LockManager.waits_for` when the
    search first reaches it; the search reaches each node at most once,
    so nothing needs caching.
    """
    return _search(requester, lock_manager.waits_for)


def _by_id(tx):
    return tx.id


def _ordered(edges):
    """``edges`` in ascending transaction-id order.

    The edges are sets of transactions, whose iteration order depends
    on identity hashes — i.e. on memory layout, which varies across
    processes. The DFS must visit successors in a stable order or the
    cycle it finds (and hence the deadlock victim chosen from it) would
    differ from run to run whenever the graph holds more than one cycle
    through the requester. Zero or one edge has one order already, so
    only two or more are sorted.
    """
    if len(edges) < 2:
        return iter(edges)
    return iter(sorted(edges, key=_by_id))


def find_cycle_containing(graph, start):
    """A cycle through ``start`` as a list of transactions, or None.

    Iterative DFS over the waits-for edges of ``graph`` (a mapping tx
    -> set of transactions it waits for); returns the cycle path
    ``[start, t1, ..., tk]`` such that ``tk`` waits for ``start``.
    The DFS visits successors in transaction-id order, so the returned
    cycle is a deterministic function of the graph alone.
    """
    return _search(start, lambda tx: graph.get(tx, ()))


def _search(start, edges_of):
    """:func:`find_cycle_containing` with edges read from ``edges_of``.

    ``edges_of(tx)`` is the set of transactions ``tx`` waits for (empty
    when it waits for nobody). It is asked once per node reached: a
    node leaves the path only into ``visited``, so it is never
    expanded twice.
    """
    edges = edges_of(start)
    if not edges:
        return None
    path = [start]
    on_path = {start}
    iterators = [_ordered(edges)]
    visited = set()
    while iterators:
        for successor in iterators[-1]:
            if successor is start:
                return list(path)
            if successor in on_path or successor in visited:
                continue
            edges = edges_of(successor)
            if edges:
                path.append(successor)
                on_path.add(successor)
                iterators.append(_ordered(edges))
                break
            # A node with no outgoing edges cannot be on a cycle.
            visited.add(successor)
        else:
            node = path.pop()
            on_path.discard(node)
            visited.add(node)
            iterators.pop()
    return None


def find_any_cycle(graph):
    """Any cycle in the graph (list of transactions), or None.

    Used by tests and by safety assertions; victim selection in the
    algorithms always goes through :func:`find_cycle_containing` because
    detection runs when a specific transaction blocks.
    """
    for node in graph:
        cycle = find_cycle_containing(graph, node)
        if cycle is not None:
            return cycle
    return None


def youngest(transactions):
    """The youngest transaction: the one that first arrived most recently.

    The paper restarts "the youngest transaction in the deadlock cycle".
    Age is the transaction's *first* submission time (kept across
    restarts), so a repeatedly restarted transaction grows relatively
    older and is eventually spared — this avoids starvation. Ties break
    on transaction id (higher id = younger).
    """
    return max(transactions, key=lambda tx: (tx.first_submit_time, tx.id))

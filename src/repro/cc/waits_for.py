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


class _OnDemandGraph:
    """The waits-for graph as :func:`find_cycle_containing` reads it.

    A node's edges come from the lock manager on first access and are
    cached for the rest of one search; a node is in the graph iff it
    waits for someone, as in :func:`build_waits_for`.
    """

    __slots__ = ("_lock_manager", "_edges")

    def __init__(self, lock_manager):
        self._lock_manager = lock_manager
        self._edges = {}

    def get(self, tx, default=None):
        edges = self._edges.get(tx)
        if edges is None:
            edges = self._edges[tx] = self._lock_manager.waits_for(tx)
        return edges or default

    def __contains__(self, tx):
        return bool(self.get(tx))


def find_deadlock(lock_manager, requester):
    """A waits-for cycle through ``requester`` (see
    :func:`find_cycle_containing`), or None, searching only the part of
    the graph reachable from it."""
    return find_cycle_containing(_OnDemandGraph(lock_manager), requester)


def _by_id(tx):
    return tx.id


def _successors(graph, node):
    """Successors of ``node`` in ascending transaction-id order.

    The adjacency values are sets of transactions, whose iteration
    order depends on identity hashes — i.e. on memory layout, which
    varies across processes. The DFS must visit successors in a stable
    order or the cycle it finds (and hence the deadlock victim chosen
    from it) would differ from run to run whenever the graph holds
    more than one cycle through the requester.
    """
    return iter(sorted(graph.get(node, ()), key=_by_id))


def find_cycle_containing(graph, start):
    """A cycle through ``start`` as a list of transactions, or None.

    Iterative DFS over the waits-for edges; returns the cycle path
    ``[start, t1, ..., tk]`` such that ``tk`` waits for ``start``.
    The DFS visits successors in transaction-id order, so the returned
    cycle is a deterministic function of the graph alone.
    """
    if start not in graph:
        return None
    path = [start]
    on_path = {start}
    iterators = [_successors(graph, start)]
    visited = set()
    while iterators:
        found_next = False
        for successor in iterators[-1]:
            if successor is start and len(path) >= 1:
                return list(path)
            if successor in on_path or successor in visited:
                continue
            if successor in graph:
                path.append(successor)
                on_path.add(successor)
                iterators.append(_successors(graph, successor))
                found_next = True
                break
            # A node with no outgoing edges cannot be on a cycle.
            visited.add(successor)
        if not found_next:
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

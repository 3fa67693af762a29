"""Model-based property test: the lock manager vs. a naive reference.

hypothesis drives random operation sequences (acquire shared/exclusive,
release-all) against both the production LockManager and a deliberately
simple reference implementation that recomputes everything from the
operation log. Divergence in *who holds what* or *who gets granted when*
is a bug in one of them — and the reference is simple enough to trust.

"Who gets granted when" includes the order across objects: a release
that unblocks waiters on several objects fires their grant events in
lock-table order, and the simulation's event order (hence every digest)
follows it. The table keeps an object only while someone holds or
waits on it, so its order is the order in which each object's current
entry was created; the reference drops idle objects the same way.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import LockManager, LockMode, compatible
from repro.des import Environment

from tests.cc.conftest import FakeTx


class ReferenceLockTable:
    """Obviously-correct (and obviously slow) lock semantics.

    State per object: list of (tx, mode) holders and a FIFO wait list of
    (tx, mode, is_upgrade). Re-derives grants after every change by the
    same rules the production manager promises:

    * re-request covered by held mode: no-op grant;
    * sole-holder upgrade grants immediately;
    * otherwise a request is granted iff compatible with all holders and
      nothing waits ahead of it (upgrades wait only for other holders);
    * on release, the wait list grants from the front: upgrades first
      (they sit at the head), batches of compatible shared requests,
      stopping at the first non-grantable entry;
    * objects are visited in the order their entries were created, and
      an object nobody holds or waits on is dropped after a release.
    """

    def __init__(self):
        self.holders = {}  # obj -> {tx: mode}
        self.waiting = {}  # obj -> list of [tx, mode, is_upgrade]

    def acquire(self, tx, obj, mode):
        holders = self.holders.setdefault(obj, {})
        waiting = self.waiting.setdefault(obj, [])
        held = holders.get(tx)
        if held is not None and held >= mode:
            return "held"
        is_upgrade = (
            held is LockMode.SHARED and mode is LockMode.EXCLUSIVE
        )
        if is_upgrade:
            if set(holders) == {tx}:
                holders[tx] = mode
                return "granted"
            position = 0
            while position < len(waiting) and waiting[position][2]:
                position += 1
            waiting.insert(position, [tx, mode, True])
            return "waiting"
        if not waiting and all(
            compatible(mode, other) for other in holders.values()
        ):
            holders[tx] = mode
            return "granted"
        waiting.append([tx, mode, False])
        return "waiting"

    def release_all(self, tx):
        """Release ``tx`` everywhere; the ``(tx, obj)`` grants, in order."""
        grants = []
        for obj in list(self.holders):
            self.holders[obj].pop(tx, None)
            self.waiting[obj] = [
                entry for entry in self.waiting[obj] if entry[0] is not tx
            ]
            grants.extend(self._grant(obj))
            if not self.holders[obj] and not self.waiting[obj]:
                del self.holders[obj]
                del self.waiting[obj]
        return grants

    def _grant(self, obj):
        holders = self.holders[obj]
        waiting = self.waiting[obj]
        while waiting:
            tx, mode, is_upgrade = waiting[0]
            if is_upgrade:
                if set(holders) != {tx}:
                    break
            elif holders and not all(
                compatible(mode, other) for other in holders.values()
            ):
                break
            holders[tx] = mode
            waiting.pop(0)
            yield tx, obj

    def state(self):
        return {
            obj: dict(holders)
            for obj, holders in self.holders.items()
            if holders
        }


operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),   # tx index
        st.integers(min_value=0, max_value=3),   # object
        st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]),
        st.booleans(),                            # release instead
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(ops=operations)
def test_lock_manager_matches_reference(ops):
    env = Environment()
    production = LockManager(env)
    reference = ReferenceLockTable()
    txs = [FakeTx(tx_id=9000 + i) for i in range(6)]
    fired = []  # (tx, obj) per processed grant event, in event order

    for tx_index, obj, mode, release in ops:
        tx = txs[tx_index]
        if release:
            production.release_all(tx)
            # Grant events fire in the order the manager scheduled them.
            env.run()
            expected = reference.release_all(tx)
            assert fired == expected, (
                f"grant order diverged at release of {tx!r}"
            )
            fired.clear()
        else:
            result = production.acquire(tx, obj, mode, wait=True)
            reference.acquire(tx, obj, mode)
            if not result.granted:
                result.event.callbacks.append(
                    lambda _event, grant=(tx, obj): fired.append(grant)
                )

        # Compare complete holder state after every operation; grants
        # made by the production manager via events are reflected in
        # its lock table immediately (events fire synchronously from
        # the table's perspective).
        production_state = {
            obj_id: production.holders(obj_id) for obj_id in range(4)
        }
        production_state = {
            obj_id: holders
            for obj_id, holders in production_state.items()
            if holders
        }
        assert production_state == reference.state(), (
            f"divergence after op {(tx_index, obj, mode, release)}"
        )
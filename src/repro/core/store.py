"""A logical versioned object store for correctness verification.

The paper's simulator models no data values (performance only). We add a
lightweight value model so the test suite can *prove* that each
algorithm's committed histories are serializable: every committed write
installs a version tagged with the writer and the algorithm's
equivalent-serial-order key; every read records which version it saw.
The checker then replays committed transactions serially in key order
and verifies each read. The store costs O(1) per operation and does not
affect timing, so performance results are unchanged.
"""

from bisect import bisect_right, insort


class Version:
    """One installed version of one object."""

    __slots__ = ("serial_key", "writer_id", "install_time")

    def __init__(self, serial_key, writer_id, install_time):
        self.serial_key = serial_key
        self.writer_id = writer_id
        self.install_time = install_time

    def __lt__(self, other):
        return self.serial_key < other.serial_key

    def __repr__(self):
        return f"<Version key={self.serial_key} writer={self.writer_id}>"


#: Sorts before every real serial key (floats or (time, seq) tuples).
_INITIAL_KEY = (float("-inf"), float("-inf"))


class ObjectStore:
    """Installed committed versions per object, ordered by serial key.

    Single-version algorithms read the latest installed version;
    multiversion algorithms read the latest version with key <= the
    reader's own key. Installation is atomic at the algorithm's commit
    point (the resource cost of deferred updates is modeled separately by
    the physical layer).
    """

    def __init__(self):
        self._versions = {}  # obj -> sorted list of Version
        self.installs = 0

    def read(self, obj, reader_key=None):
        """The version a read observes.

        ``reader_key`` of None (single-version algorithms) returns the
        version with the largest serial key installed so far; otherwise
        the largest key <= ``reader_key``.
        """
        chain = self._versions.get(obj)
        if not chain:
            return Version(_INITIAL_KEY, None, None)
        if reader_key is None:
            return chain[-1]
        index = bisect_right(chain, reader_key, key=lambda v: v.serial_key)
        if index == 0:
            return Version(_INITIAL_KEY, None, None)
        return chain[index - 1]

    def install(self, obj, serial_key, writer_id, now):
        """Install a committed write (atomic at the commit point)."""
        version = Version(serial_key, writer_id, now)
        chain = self._versions.setdefault(obj, [])
        if chain and chain[-1].serial_key <= serial_key:
            chain.append(version)  # common case: keys arrive in order
        else:
            insort(chain, version)
        self.installs += 1
        return version

    def final_state(self):
        """obj -> writer id of the last version (by serial key)."""
        return {
            obj: chain[-1].writer_id
            for obj, chain in self._versions.items()
            if chain
        }

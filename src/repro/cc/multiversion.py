"""Multiversion Timestamp Ordering [Reed78], as compared in [Lin83].

Each committed write creates a new *version* stamped with the writer's
timestamp. Reads never block and never abort: a reader stamped R reads
the latest committed version with write stamp <= R and records R on that
version's read stamp. A writer stamped W is rejected iff installing its
version would invalidate an existing read — i.e. the version it would
supersede has been read by a transaction stamped later than W:

    v = latest version with v.wts < W
    reject if v.max_read_ts > W

The rule is checked early (at write-request time, to avoid wasting the
rest of the attempt) and re-checked at the commit point, when versions
are actually installed (deferred updates).
"""

from bisect import bisect_right, insort

from repro.cc.base import (
    DELAY_NONE,
    INSTALL_AT_PRE_COMMIT,
    ConcurrencyControl,
    cc_units_written,
)
from repro.cc.errors import REASON_TIMESTAMP, RestartTransaction
from repro.cc.timestamp import MIN_TS


class _Version:
    """One committed version: write stamp plus the largest read stamp."""

    __slots__ = ("wts", "max_read_ts", "writer_id")

    def __init__(self, wts, writer_id):
        self.wts = wts
        self.max_read_ts = MIN_TS
        self.writer_id = writer_id

    def __lt__(self, other):
        return self.wts < other.wts

    def __repr__(self):
        return f"<Version wts={self.wts} rts={self.max_read_ts}>"


class _VersionChain:
    """Committed versions of one object, ordered by write stamp."""

    __slots__ = ("versions",)

    def __init__(self):
        # A pre-existing "initial" version so every read finds something.
        self.versions = [_Version(MIN_TS, writer_id=None)]

    def version_for(self, ts):
        """Latest version with wts <= ts."""
        index = bisect_right(self.versions, ts, key=lambda v: v.wts)
        return self.versions[index - 1]

    def install(self, version):
        insort(self.versions, version)

    def prune(self, keep_after_ts, max_versions):
        """Drop versions no active reader can need (bounded memory)."""
        if len(self.versions) <= max_versions:
            return
        # Keep the latest version with wts <= keep_after_ts and everything
        # after it; older versions are unreachable.
        index = bisect_right(
            self.versions, keep_after_ts, key=lambda v: v.wts
        )
        first_needed = max(0, index - 1)
        if first_needed > 0:
            del self.versions[:first_needed]


class MultiversionTimestampOrderingCC(ConcurrencyControl):
    """MVTO: reads never block or abort; late writes are rejected."""

    name = "mvto"
    default_restart_delay = DELAY_NONE
    install_at = INSTALL_AT_PRE_COMMIT
    #: Version-chain length that triggers pruning of unreachable versions.
    max_versions = 32

    def __init__(self):
        super().__init__()
        self._chains = {}
        self._active_ts = set()
        self.rejections = 0

    def _chain(self, obj):
        chain = self._chains.get(obj)
        if chain is None:
            chain = self._chains[obj] = _VersionChain()
        return chain

    def begin(self, tx):
        self._active_ts.add(tx.cc_timestamp)
        tx.mv_reads_from = {}

    # -- reads ----------------------------------------------------------------

    def read_request(self, tx, obj):
        version = self._chain(obj).version_for(tx.cc_timestamp)
        if tx.cc_timestamp > version.max_read_ts:
            version.max_read_ts = tx.cc_timestamp
        tx.mv_reads_from[obj] = version.writer_id
        return None

    # -- writes ---------------------------------------------------------------

    def write_request(self, tx, obj):
        self._check_write(tx, obj)
        return None

    def _check_write(self, tx, obj):
        version = self._chain(obj).version_for(tx.cc_timestamp)
        if version.max_read_ts > tx.cc_timestamp:
            self.rejections += 1
            raise RestartTransaction(
                REASON_TIMESTAMP,
                f"version of {obj} already read by a younger transaction",
            )

    # -- commit/abort ------------------------------------------------------------

    def pre_commit(self, tx):
        """Re-check the write rule, then install all versions atomically."""
        for unit in cc_units_written(tx):
            self._check_write(tx, unit)
        oldest_active = min(self._active_ts) if self._active_ts else MIN_TS
        for unit in cc_units_written(tx):
            chain = self._chain(unit)
            chain.install(_Version(tx.cc_timestamp, writer_id=tx.id))
            chain.prune(oldest_active, self.max_versions)
        return None

    def finalize_commit(self, tx):
        self._active_ts.discard(tx.cc_timestamp)

    def abort(self, tx):
        self._active_ts.discard(tx.cc_timestamp)

    def serial_key(self, tx):
        """MVTO serializes committed transactions in timestamp order."""
        return tx.cc_timestamp

    def reader_version_key(self, tx):
        """Reads select the latest committed version stamped <= ts."""
        return tx.cc_timestamp

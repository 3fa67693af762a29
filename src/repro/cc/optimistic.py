"""The paper's Optimistic algorithm (Kung–Robinson commit-time validation).

Transactions execute unhindered — the first concurrency-control request
is a no-op and object accesses proceed with no intervening CC requests.
At its commit point a transaction validates: it is restarted if any
object it read was written by another transaction that committed during
its (current attempt's) lifetime. No restart delay is needed — a
detected conflict is with an already *committed* transaction, so the same
conflict cannot recur.

Validation is modeled as atomic at the commit point (the cc queue visit
after the last object access): a successful validator stamps its write
set with the current time before its deferred updates are performed, so
transactions validating during the update phase still see the conflict.
This mirrors Kung–Robinson's serial-validation critical section.

A write stamped at the very instant an attempt starts may be installed
before or after that attempt's first reads (same simulated time,
different event order), so a tie conflicts only when the attempt read
the version that write replaced.
"""

from repro.cc.base import (
    DELAY_NONE,
    INSTALL_AT_PRE_COMMIT,
    ConcurrencyControl,
    cc_units_read,
    cc_units_written,
)
from repro.cc.errors import REASON_VALIDATION, RestartTransaction


class OptimisticCC(ConcurrencyControl):
    """Commit-time backward validation against committed write stamps."""

    name = "optimistic"
    default_restart_delay = DELAY_NONE
    install_at = INSTALL_AT_PRE_COMMIT

    def __init__(self):
        super().__init__()
        # obj -> simulated time of the last committed write. Missing keys
        # mean "never written", i.e. -infinity.
        self._write_stamp = {}
        # unit -> (id, write set) of the transaction that set the stamp.
        self._stamp_writer = {}
        self.validations = 0
        self.validation_failures = 0

    # Reads and writes run unhindered: both requests are no-ops.

    def pre_commit(self, tx):
        """Backward validation at the commit point.

        Fails if any object in the read set carries a committed-write
        stamp later than this attempt's start (i.e. some transaction
        committed a write to it during our lifetime).
        """
        self.validations += 1
        stamps = self._write_stamp
        start = tx.attempt_start_time
        for unit in cc_units_read(tx):
            stamp = stamps.get(unit, -1.0)
            if stamp > start or (
                stamp == start and self._read_replaced_version(tx, unit)
            ):
                self.validation_failures += 1
                raise RestartTransaction(
                    REASON_VALIDATION,
                    f"unit {unit} written after attempt start {start:.6g}",
                )
        # Validated: this is the commit point. Stamp the write set now so
        # that concurrent validators observe the conflict even while our
        # deferred updates are still being written to disk.
        now = self.env.now
        writers = self._stamp_writer
        for unit in cc_units_written(tx):
            stamps[unit] = now
            writers[unit] = (tx.id, tx.write_set)
        return None

    def _read_replaced_version(self, tx, unit):
        """Whether ``tx`` read a version that ``unit``'s last writer replaced."""
        writer_id, written = self._stamp_writer[unit]
        seen = tx.reads_seen
        return any(
            obj in seen and seen[obj] != writer_id for obj in written
        )

    def abort(self, tx):
        """Nothing to clean up: optimistic keeps no per-transaction state."""

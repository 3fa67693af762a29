"""Transactions: identity, read/write sets, and per-attempt state.

A transaction is "a sequence of actions {a1 ... an}, where ai is either
read or write" (paper, section 2). The simulator keeps backup copies of
the read and write sets so a restarted transaction makes "all of the same
concurrency control requests and object accesses over again".
"""

from enum import Enum


class TxState(Enum):
    """Where a transaction currently is in the logical queuing model."""

    AT_TERMINAL = "at_terminal"      # external think, not yet submitted
    READY = "ready"                  # in the ready queue (not active)
    RUNNING = "running"              # active: executing reads/writes
    BLOCKED = "blocked"              # active: waiting in the blocked queue
    THINKING = "thinking"            # active: intra-transaction think
    COMMITTING = "committing"        # active: past commit point, updating
    RESTART_DELAY = "restart_delay"  # aborted, delayed before resubmission
    COMMITTED = "committed"          # done


class Transaction:
    """One transaction: fixed read/write sets plus mutable attempt state."""

    __slots__ = (
        "id",
        "terminal_id",
        "read_set",
        "write_set",
        "state",
        "first_submit_time",
        "priority_ts",
        "cc_timestamp",
        "attempts",
        "attempt_start_time",
        "attempt_cpu_time",
        "attempt_disk_time",
        "commit_time",
        "lock_wait_event",
        "serial_key",
        "install_write_set",
        "reads_seen",
        "process",
        "done_event",
        "to_skipped_writes",
        "mv_reads_from",
        "static_lock_plan",
        "static_lock_index",
        "cc_read_set",
        "cc_write_set",
        "tx_class",
        "reentry_of",
    )

    def __init__(self, tx_id, terminal_id, read_set, write_set):
        write_set = frozenset(write_set)
        read_set = tuple(read_set)
        if not write_set <= set(read_set):
            raise ValueError("write set must be a subset of the read set")
        self.id = tx_id
        self.terminal_id = terminal_id
        self.read_set = read_set
        self.write_set = write_set
        self.state = TxState.AT_TERMINAL
        self.first_submit_time = None
        #: Priority timestamp for wound-wait/wait-die: assigned at first
        #: submission and kept across restarts, so transactions age.
        self.priority_ts = None
        #: Per-attempt timestamp for timestamp-ordering algorithms.
        self.cc_timestamp = None
        self.attempts = 0
        self.attempt_start_time = None
        self.attempt_cpu_time = 0.0
        self.attempt_disk_time = 0.0
        self.commit_time = None
        self.lock_wait_event = None
        self.serial_key = None
        self.install_write_set = write_set
        #: obj -> value observed by this attempt's reads (for the
        #: serializability checker; values come from the ObjectStore).
        self.reads_seen = {}
        self.process = None
        self.done_event = None
        self.to_skipped_writes = set()
        self.mv_reads_from = {}
        self.static_lock_plan = None
        self.static_lock_index = 0
        #: Concurrency-control units (granules) corresponding to the
        #: read/write sets; identical to them at object-level CC.
        #: Deduplicated, read order preserved. Set by the engine.
        self.cc_read_set = read_set
        self.cc_write_set = write_set
        #: Workload-mix class name (None in the single-class model).
        self.tx_class = None
        #: Id of the completed transaction whose feedback routing
        #: spawned this one (trace workload model), or None for
        #: first-entry work. Distinct from restarts: a re-entry is a
        #: *new* transaction, with its own id and response time.
        self.reentry_of = None

    # -- attempt lifecycle ---------------------------------------------------

    def begin_attempt(self, now, cc_timestamp):
        """Reset per-attempt state at the start of an (re)execution."""
        self.attempts += 1
        self.attempt_start_time = now
        self.cc_timestamp = cc_timestamp
        self.attempt_cpu_time = 0.0
        self.attempt_disk_time = 0.0
        self.lock_wait_event = None
        self.install_write_set = self.write_set
        self.reads_seen = {}
        self.to_skipped_writes = set()
        self.mv_reads_from = {}
        self.state = TxState.RUNNING

    @property
    def is_committing(self):
        """Past the commit point (used by wound-wait to spare finishers)."""
        return self.state is TxState.COMMITTING

    @property
    def size(self):
        """Number of objects read (the paper's transaction size)."""
        return len(self.read_set)

    def response_time(self):
        """First submission to commit, or None if not yet committed."""
        if self.commit_time is None or self.first_submit_time is None:
            return None
        return self.commit_time - self.first_submit_time

    def __repr__(self):
        return (
            f"<Transaction {self.id} {self.state.value} "
            f"reads={len(self.read_set)} writes={len(self.write_set)} "
            f"attempts={self.attempts}>"
        )

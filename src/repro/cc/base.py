"""The interface every concurrency-control algorithm implements.

The engine (``repro.core.engine``) drives an algorithm through this
protocol. All methods are synchronous; a method that cannot complete the
request immediately returns a *wait event* that the transaction's process
must yield on. Conflict decisions surface as
:class:`~repro.cc.errors.RestartTransaction`, either raised directly into
the requester or delivered by failing a victim's wait event / interrupting
its process via the engine hooks.

Sequence per transaction attempt::

    begin(tx)
    for obj in tx.read_set:   read_request(tx, obj)   # may return event
    for obj in tx.write_set:  write_request(tx, obj)  # may return event
    pre_commit(tx)       # commit-point validation; may raise / return event
    ... deferred updates performed by the engine ...
    finalize_commit(tx)  # release locks etc.

    abort(tx)  # instead, whenever RestartTransaction reached the engine
"""

# Restart-delay policies an algorithm may declare as its default.
DELAY_NONE = "none"
DELAY_ADAPTIVE = "adaptive"

# When the engine should install a committing transaction's writes into
# the (logical) object store: at the commit point established by
# pre_commit, or when the transaction finally completes.
INSTALL_AT_PRE_COMMIT = "pre_commit"
INSTALL_AT_FINALIZE = "finalize"


def cc_units_read(tx):
    """The CC units (granules or objects) a transaction reads.

    Falls back to the raw read set for plain test doubles; the engine
    always populates ``cc_read_set``.
    """
    units = getattr(tx, "cc_read_set", None)
    return units if units else tx.read_set


def cc_units_written(tx):
    """The CC units a transaction writes (see :func:`cc_units_read`)."""
    units = getattr(tx, "cc_write_set", None)
    return units if units else tx.write_set


class EngineHooks:
    """Callbacks an algorithm uses to talk back to the engine.

    The engine passes a concrete implementation to :meth:`attach`. A
    null implementation makes algorithms unit-testable standalone.
    """

    def count_block(self, tx):
        """A concurrency-control request just blocked ``tx``."""

    def abort_remote(self, tx, error):
        """Abort ``tx``, which is NOT currently waiting on a CC event.

        Used by algorithms that abort running transactions (wound-wait).
        ``error`` is the RestartTransaction to deliver.
        """
        raise NotImplementedError(
            "this engine cannot abort running transactions"
        )


class ConcurrencyControl:
    """Abstract base for concurrency-control algorithms."""

    #: Registry name, e.g. ``"blocking"``.
    name = None
    #: Default restart-delay policy (the paper's per-algorithm choice).
    default_restart_delay = DELAY_NONE
    #: When the engine installs writes into the logical object store.
    install_at = INSTALL_AT_FINALIZE

    def __init__(self):
        self.env = None
        self.hooks = EngineHooks()

    def attach(self, env, hooks=None):
        """Bind the algorithm to a simulation environment."""
        self.env = env
        if hooks is not None:
            self.hooks = hooks
        return self

    # -- protocol ---------------------------------------------------------

    def begin(self, tx):
        """A new attempt of ``tx`` starts executing."""

    def read_request(self, tx, obj):
        """CC request preceding a read of ``obj``.

        Returns None (proceed) or an event to wait on. Raises
        RestartTransaction to abort the requester.
        """
        return None

    def write_request(self, tx, obj):
        """CC request preceding a write of ``obj`` (read locks upgrade)."""
        return None

    def pre_commit(self, tx):
        """Commit-point processing (e.g. optimistic validation).

        Returns None or an event; raises RestartTransaction on failure.
        After this returns/fires, the transaction is logically committed.
        """
        return None

    def finalize_commit(self, tx):
        """Called after deferred updates complete; release CC state."""

    def abort(self, tx):
        """Clean up CC state for an aborted attempt of ``tx``."""

    # -- serialization-order hooks (used by the engine's object store) -----

    def serial_key(self, tx):
        """Equivalent-serial-order key of a committing transaction.

        None means "assign a fresh commit-order key" (correct for strict
        2PL variants and optimistic validation order). Timestamp-ordering
        algorithms return the transaction's timestamp instead.
        """
        return None

    def reader_version_key(self, tx):
        """Version-selection key for reads (None = read latest installed).

        Asked once per attempt, before its first read: the key must be
        fixed for the attempt. Only multiversion algorithms override
        this.
        """
        return None

    # -- introspection ------------------------------------------------------

    def describe(self):
        """One-line human description (used in reports)."""
        return type(self).__doc__.strip().splitlines()[0]


class CommitProtocol:
    """The commit-point seam: what happens *around* ``cc.pre_commit``.

    The engine historically treated commit as a single atomic point.
    This seam splits it into the classic two-phase-commit shape without
    changing any algorithm: a *prepare window* runs just before the
    algorithm's own ``pre_commit`` (vote collection — for 2PL the locks
    are naturally still held, for optimistic the validation that
    follows *is* the local vote), and a *decision stage* runs after the
    writes install (distributing the outcome), still before
    ``finalize_commit`` releases CC state. A protocol composes with
    every registered algorithm because it only brackets the existing
    commit path; it never touches the algorithm's conflict logic.

    ``prepare``/``decide`` are generators driven with ``yield from``
    inside the transaction process, so protocols charge real service
    (network legs) through the attached model's physical tier. The
    engine consults :attr:`is_null` once per model and skips both
    generators entirely for null protocols — the paper's single-site
    commit path stays bit-identical to pre-seam builds.
    """

    #: Registry name, e.g. ``"2pc"``.
    name = None
    #: True when the protocol adds nothing to the commit path; the
    #: engine then never builds the prepare/decide generators at all.
    is_null = True

    def __init__(self):
        self.model = None

    def attach(self, model):
        """Bind the protocol to its :class:`~repro.core.engine.SystemModel`."""
        self.model = model
        return self

    def prepare(self, tx):
        """Vote-collection stage, run immediately before ``pre_commit``.

        A generator: yield service events (network legs) as needed.
        Raising :class:`~repro.cc.errors.RestartTransaction` here aborts
        the attempt exactly like a CC conflict would.
        """
        return
        yield  # pragma: no cover - generator shape

    def decide(self, tx):
        """Decision-distribution stage, run after the writes install."""
        return
        yield  # pragma: no cover - generator shape

    def abort(self, tx):
        """Discard protocol state for an aborted attempt of ``tx``."""

    def describe(self):
        """One-line human description (used in reports)."""
        return type(self).__doc__.strip().splitlines()[0]


class SingleSiteCommit(CommitProtocol):
    """The paper's atomic commit point: no distributed handshake."""

    name = "single_site"
    is_null = True

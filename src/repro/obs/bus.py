"""The instrumentation bus: one emission point, pluggable consumers.

The engine (and the physical model and fault injector behind it) emits
every operational event exactly once, through one bus; traces,
invariant checking, time-series sampling and JSONL streaming are all
*subscribers*. The bus carries events only for observers: every counter
a report reads (the metrics, the cache and fault counts) is kept by the
object that owns it, so a bare model attaches no subscriber at all.

Design constraints, in order:

1. **Zero cost for unobserved kinds.** Emission starts with one dict
   lookup; a kind nobody subscribed to returns immediately, and the
   hot emitters additionally consult the precomputed ``wants_*`` flags
   *before building the event's fields*, so an idle kind allocates
   nothing at all. The flags are derived from the handler tables, never
   set: ``wants_commit_point`` (the engine's commit point),
   ``wants_resource`` (``resource_busy``/``resource_idle`` around every
   service), ``wants_cc`` (``cc_grant``), ``wants_msg`` (the
   message-level kinds: ``msg_send``/``msg_recv`` around every network
   leg and the ``2pc_prepare``/``2pc_vote`` exchange they carry) and
   ``wants_buffer`` (``buffer_hit``/``buffer_miss``/``buffer_writeback``
   per buffer probe and write-back; the resource model keeps its own
   cache counters, so these events exist only for observers).
2. **Synchronous, deterministic dispatch.** Handlers run inline, in
   subscriber attach order, at the simulated instant of the event.
   Subscribers only *observe* — they must not mutate model state — so
   attaching any set of them leaves a fixed-seed run's results
   bit-identical (tested in ``tests/obs/test_parity.py``).
3. **Per-kind handler tables.** At attach time each subscriber's
   handlers are folded into ``kind -> (handler, ...)`` tuples, so an
   emission never iterates subscribers that do not care about its kind.

Subscriber protocol (duck-typed; :class:`~repro.obs.subscribers.
Subscriber` is a convenience base):

* ``handlers() -> {kind: callable(time, fields)}`` — required; the
  bus calls it once per attach/detach cycle.
* ``on_attach(bus, model)`` — optional; called after registration with
  the owning :class:`~repro.core.engine.SystemModel` (``None`` when the
  bus is used standalone). Subscribers that need their own simulation
  process (e.g. periodic samplers) start it here.
"""

from repro.obs.events import (
    BUFFER_KINDS,
    CC_GRANT,
    MSG_RECV,
    MSG_SEND,
    RESOURCE_BUSY,
    RESOURCE_IDLE,
    TWO_PC_PREPARE,
    TWO_PC_VOTE,
    TX_COMMIT_POINT,
)

#: Kinds behind ``wants_msg``: per-message events of the sharded tier.
_MESSAGE_LEVEL_KINDS = (MSG_SEND, MSG_RECV, TWO_PC_PREPARE, TWO_PC_VOTE)


class InstrumentationBus:
    """Synchronous, typed event dispatch for one simulation run."""

    __slots__ = (
        "env",
        "subscribers",
        "_handlers",
        "wants_commit_point",
        "wants_resource",
        "wants_cc",
        "wants_msg",
        "wants_buffer",
    )

    def __init__(self, env):
        self.env = env
        self.subscribers = []
        self._handlers = {}
        self._refresh_flags()

    # -- subscription --------------------------------------------------------

    def attach(self, subscriber, model=None):
        """Register ``subscriber`` and return it.

        ``model`` is forwarded to the subscriber's optional
        ``on_attach`` hook so samplers can reach the instruments and
        start their own processes.
        """
        self.subscribers.append(subscriber)
        self._rebuild()
        on_attach = getattr(subscriber, "on_attach", None)
        if on_attach is not None:
            on_attach(self, model)
        return subscriber

    def detach_all(self):
        """Unregister every subscriber: later emissions reach nobody."""
        self.subscribers.clear()
        self._rebuild()

    def _rebuild(self):
        table = {}
        for subscriber in self.subscribers:
            for kind, handler in subscriber.handlers().items():
                table.setdefault(kind, []).append(handler)
        self._handlers = {
            kind: tuple(handlers) for kind, handlers in table.items()
        }
        self._refresh_flags()

    def _refresh_flags(self):
        # Precomputed fast-path flags: the engine and physical model
        # check these before building fields for high-volume optional
        # kinds, so an unobserved kind costs one attribute load.
        self.wants_commit_point = TX_COMMIT_POINT in self._handlers
        self.wants_resource = (
            RESOURCE_BUSY in self._handlers
            or RESOURCE_IDLE in self._handlers
        )
        self.wants_cc = CC_GRANT in self._handlers
        self.wants_msg = any(
            kind in self._handlers for kind in _MESSAGE_LEVEL_KINDS
        )
        self.wants_buffer = any(
            kind in self._handlers for kind in BUFFER_KINDS
        )

    # -- emission ------------------------------------------------------------

    def wants(self, kind):
        """True when at least one subscriber handles ``kind``."""
        return kind in self._handlers

    def emit(self, kind, **fields):
        """Dispatch one event to every handler of ``kind``.

        A kind with no handlers returns after a single dict lookup.
        Handlers receive ``(now, fields)`` — the kind is bound into the
        handler at registration time.
        """
        handlers = self._handlers.get(kind)
        if handlers:
            now = self.env.now
            for handler in handlers:
                handler(now, fields)

    def __repr__(self):
        return (
            f"<InstrumentationBus subscribers={len(self.subscribers)} "
            f"kinds={sorted(self._handlers)}>"
        )

"""Event primitives for the DES kernel.

An :class:`Event` moves through three states:

* *pending* — created, not yet scheduled to fire;
* *triggered* — given a value (or an exception) and placed on the event
  queue;
* *processed* — popped from the queue and its callbacks run.

Processes (see :mod:`repro.des.process`) communicate exclusively by waiting
on events: ``yield some_event`` suspends the process until the event is
processed, at which point the event's value is sent back into the generator
(or its exception thrown into it).
"""

from heapq import heappush

PENDING = object()

# Scheduling priority bands. Lower sorts earlier among events at the same
# simulated time. URGENT is used for kernel bookkeeping (process init,
# interrupts) so that they preempt ordinary same-time events.
URGENT = 0
NORMAL = 1


class Event:
    """A happening at a point in simulated time, carrying a value.

    Callbacks are callables of one argument (the event); they run when the
    event is processed. After processing, ``callbacks`` is None — appending
    to a processed event is an error, which surfaces use-after-fire bugs.
    A queued event whose ``callbacks`` are set to None before it is popped
    is withdrawn: the run loop discards it without advancing the clock.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False

    @property
    def triggered(self):
        """True once the event has a value and is (or was) queued to fire."""
        return self._value is not PENDING

    @property
    def processed(self):
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self):
        """True if the event succeeded; only meaningful once triggered."""
        if not self.triggered:
            raise AttributeError("event has not yet been triggered")
        return self._ok

    @property
    def value(self):
        """The event's value (raises the exception for failed events)."""
        if self._value is PENDING:
            raise AttributeError("event has not yet been triggered")
        if not self._ok:
            raise self._value
        return self._value

    def succeed(self, value=None, priority=NORMAL):
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority)
        return self

    def fail(self, exception, priority=NORMAL):
        """Trigger the event with an exception.

        The exception propagates into every waiting process. If no process
        is waiting when the event is processed, the failure is re-raised at
        the run loop (unless ``defused``), so failures cannot pass silently.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority)
        return self

    def _unhook(self):
        # Environment.close: cut the links back into the simulation.
        self.callbacks = None
        self.env = None

    def __repr__(self):
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Timeouts are the single most-created event type; initialize
        # every field directly instead of paying for Event.__init__
        # assigning _ok/_value only to overwrite them here, and push the
        # queue entry in line: the key Environment.schedule would build.
        self.env = env
        self.callbacks = []
        self._defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        heappush(env._queue, (env._now + delay, NORMAL, env._eid(), self))

    def __repr__(self):
        return f"<Timeout delay={self.delay} at {id(self):#x}>"

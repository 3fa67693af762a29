"""The simulation environment: clock, event queue, and run loop."""

from heapq import heappop, heappush
from itertools import count

from repro.des.errors import EmptySchedule, StopSimulation
from repro.des.events import NORMAL, Event, Timeout
from repro.des.process import Process

_INF = float("inf")


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float starting at ``initial_time``; it advances only when the
    run loop pops an event scheduled later than ``now``. Events at the same
    time are processed in (priority, insertion order), which makes runs
    deterministic for a fixed seed.

    ``_processes`` is the live-process registry: every
    :class:`~repro.des.process.Process` enters it when started and
    leaves it when its generator ends, in insertion order. It is what
    :meth:`close` walks to free a finished simulation without the
    cyclic garbage collector.
    """

    __slots__ = ("_now", "_queue", "_eid", "_processes")

    def __init__(self, initial_time=0.0):
        self._now = initial_time
        self._queue = []
        self._eid = count().__next__
        self._processes = {}

    @property
    def now(self):
        """Current simulated time."""
        return self._now

    # -- event construction helpers ------------------------------------

    def event(self):
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay, value=None):
        """An event that fires after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(self, generator):
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator)

    # -- scheduling and the run loop ------------------------------------

    def schedule(self, event, priority=NORMAL, delay=0.0):
        """Queue ``event`` to be processed after ``delay`` time units."""
        heappush(
            self._queue, (self._now + delay, priority, self._eid(), event)
        )

    def step(self):
        """Process exactly one event.

        A withdrawn entry (an event whose callbacks were cleared while
        it was queued, see :meth:`repro.des.resources.Resource.finish`)
        is discarded on the way without touching the clock.
        """
        callbacks = None
        while callbacks is None:
            try:
                when, _, _, event = heappop(self._queue)
            except IndexError:
                raise EmptySchedule("no more events") from None
            callbacks = event.callbacks
        self._now = when
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failed event nobody waited on: surface the error rather
            # than losing it.
            raise event._value

    def run(self, until=None):
        """Run until ``until`` (a time or an Event) or until no events remain.

        * ``until is None`` — run the queue dry.
        * ``until`` is a number — run events strictly before that time,
          then set ``now`` to it.
        * ``until`` is an :class:`Event` — run until that event is
          processed and return its value.
        """
        stop_event = None
        if until is None:
            deadline = _INF
        elif isinstance(until, Event):
            stop_event = until
            deadline = _INF
            if stop_event.processed:
                return stop_event.value

            def _stop(event):
                raise StopSimulation(event)

            stop_event.callbacks.append(_stop)
        else:
            deadline = float(until)
            if deadline < self._now:
                raise ValueError(
                    f"until ({deadline}) must not be before now ({self._now})"
                )
        # The inner loop is :meth:`step` inlined with everything bound to
        # locals. This is the hottest loop of every simulation, so it pays
        # not to re-resolve attribute and global lookups per event.
        queue = self._queue
        pop = heappop
        try:
            while queue:
                when = queue[0][0]
                if when >= deadline:
                    break
                event = pop(queue)[3]
                callbacks = event.callbacks
                if callbacks is None:
                    continue  # withdrawn: discarded, the clock stays
                self._now = when
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            event = stop.value
            event._defused = True
            return event.value
        if stop_event is not None:
            raise RuntimeError(
                "run() finished without the until-event being processed"
            )
        if deadline != _INF:
            self._now = deadline
        return None

    def close(self):
        """Abandon the simulation: close every live process, unhook events.

        Each live process's generator is closed, oldest first, which
        runs its ``finally`` clauses (a held resource is finished
        there), and the process drops its own event links. Then every
        queued event loses its ``callbacks`` and ``env``. The heap
        entries stay, so ``now``, the event-id sequence and the queue
        length read as they did when the run stopped; only the
        references that made the finished simulation one big reference
        cycle are gone. Idempotent; the environment must not run again.
        """
        live = self._processes
        while live:
            next(iter(live))._abandon()
        for entry in self._queue:
            entry[3]._unhook()

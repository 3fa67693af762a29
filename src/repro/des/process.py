"""Generator-based simulation processes.

A process is a Python generator that yields events. When the yielded event
fires, the process resumes with the event's value (``x = yield ev``), or the
event's exception is thrown into it. A :class:`Process` is itself an event
that fires when the generator returns, so processes can wait on each other
(``result = yield env.process(child())``).

A process is registered with its environment while its generator is
live (one insert when it starts, one delete when the generator ends),
so :meth:`~repro.des.environment.Environment.close` can close every
generator still suspended when a simulation is abandoned.
"""

from types import GeneratorType

from repro.des.errors import Interrupt
from repro.des.events import URGENT, Event


class Initialize(Event):
    """Kernel event that starts a process on the next queue step."""

    __slots__ = ()

    def __init__(self, env, process):
        self.env = env
        self.callbacks = [process._resume_cb]
        self._value = None
        self._ok = True
        self._defused = False
        env.schedule(self, URGENT)


class Process(Event):
    """A running generator; fires (as an event) with the generator's return.

    If the generator raises, the process fails with that exception; the
    failure propagates to waiters, or to the run loop if nobody waits —
    errors never pass silently.
    """

    __slots__ = (
        "_generator", "_target", "name", "_send", "_throw", "_resume_cb"
    )

    def __init__(self, env, generator, name=None):
        if not isinstance(generator, GeneratorType):
            raise TypeError(
                f"process body must be a generator, got {generator!r}"
            )
        super().__init__(env)
        self._generator = generator
        # Bound-method caches: _resume runs once per event delivered to
        # any process, so the send/throw attribute lookups add up.
        self._send = generator.send
        self._throw = generator.throw
        self._resume_cb = self._resume
        self._target = None
        self.name = name or generator.__name__
        env._processes[self] = None
        Initialize(env, self)

    @property
    def is_alive(self):
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process as soon as possible.

        The interrupt is delivered via an urgent event so it cannot race
        ahead of the current callback cascade. Interrupting a finished
        process is an error.
        """
        if self.triggered:
            raise RuntimeError(f"{self} has already terminated")
        interrupt_event = Event(self.env)
        interrupt_event._defused = True
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.callbacks.append(self._deliver_interrupt)
        self.env.schedule(interrupt_event, URGENT)

    def _deliver_interrupt(self, event):
        if self.triggered:
            return  # process finished before the interrupt was delivered
        # Detach from whatever we were waiting on, then resume with failure.
        if self._target is not None and not self._target.processed:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._resume(event)

    def _resume(self, event):
        send = self._send
        while True:
            self._target = None
            try:
                if event._ok:
                    next_target = send(event._value)
                else:
                    event._defused = True
                    next_target = self._throw(event._value)
            except StopIteration as stop:
                self._retire()
                self.succeed(stop.value)
                return
            except BaseException as error:
                self._retire()
                self.fail(error)
                return
            if not isinstance(next_target, Event):
                self._retire()
                self.fail(
                    TypeError(
                        f"process {self.name!r} yielded a non-event: "
                        f"{next_target!r}"
                    )
                )
                return
            if next_target.callbacks is None:  # processed
                # Already fired and delivered: resume immediately in-line.
                event = next_target
                continue
            next_target.callbacks.append(self._resume_cb)
            self._target = next_target
            break

    def _retire(self):
        # The generator has ended: without the caches a finished
        # process is no reference cycle (``_resume_cb`` is a bound
        # method of the process itself), so reference counting frees
        # it instead of the cyclic collector. It leaves the live
        # registry too.
        self._send = self._throw = self._resume_cb = None
        del self.env._processes[self]

    def _abandon(self):
        """Close the suspended generator and cut this process's links.

        Called by :meth:`~repro.des.environment.Environment.close`.
        The event waited on and the process itself (an event too) lose
        their callbacks and environment; the process never fires.
        """
        self._generator.close()
        self._retire()
        if self._target is not None:
            self._target._unhook()
            self._target = None
        self._unhook()

    def __repr__(self):
        return f"<Process {self.name!r} at {id(self):#x}>"

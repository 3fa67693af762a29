"""The paper's closed terminal pool (``workload_model="closed_classic"``).

A fixed population of ``num_terms`` terminals: each thinks for an
exponential external think time, submits one transaction, waits for it
to complete, and repeats. This is the origination loop that used to be
hard-coded as ``SystemModel._terminal``; it moved here verbatim — same
stream names (``terminal.<id>``), same draw order, same process
creation order — so every seeded run is bit-identical to the
pre-registry engine (pinned by ``tests/resources/test_golden_parity.py``
and ``tests/workloads/test_closed_classic.py``).

:class:`ClosedPopulationWorkload` holds the one terminal loop; a closed
model only says how one think time is drawn (:meth:`draw_think`), so the
``heavy_tailed`` model's lognormal and Pareto thinks run the same loop.

Seeding note (the initial stagger): each terminal's *first* draw on its
``terminal.<id>`` stream is an extra think-time sample taken before the
submit loop, so 200 terminals do not all fire simultaneously at t=0.
Every subsequent think time is the stream's next draw. The stagger draw
is part of the fixed seeding scheme — removing or reordering it would
shift every terminal's think sequence and break golden parity.

Each terminal reads its think times from the ``terminal.<id>`` draw
sequence (:class:`~repro.des.rng.DrawSequence`), :data:`THINK_CHUNK` draws
at a time, through a cursor of its own. The *n*-th value is the
stream's *n*-th ``draw_think`` draw however it was chunked, so the
sequence depends only on the seed and the parameters: a sweep draws
it once, on its workload tape, and every grid point reads the recorded
values (:mod:`repro.fastlane.tapes`); a stand-alone model draws its
own.
"""

from functools import partial

from repro.workloads.base import WorkloadModel

__all__ = ["ClosedClassicWorkload", "ClosedPopulationWorkload"]

#: Think times drawn per chunk of a terminal's sequence.
THINK_CHUNK = 4


class ClosedPopulationWorkload(WorkloadModel):
    """A fixed terminal pool: think, submit, wait for completion, repeat.

    Subclasses set ``name`` and override :meth:`draw_think`.
    """

    def draw_think(self, rng, mean):
        """One think-time sample with mean ``mean`` from ``rng``."""
        raise NotImplementedError

    def _draw_thinks(self, rng):
        draw_think = self.draw_think
        mean = self.params.ext_think_time
        return [draw_think(rng, mean) for _ in range(THINK_CHUNK)]

    def _thinks(self, name, streams):
        return partial(self._draw_thinks, streams.stream(name))

    def start(self, model):
        sequence = model.streams.sequence
        for terminal_id in range(model.params.num_terms):
            name = f"terminal.{terminal_id}"
            thinks = sequence(name, partial(self._thinks, name))
            model.env.process(self._terminal(model, terminal_id, thinks))

    def _terminal(self, model, terminal_id, thinks):
        """One terminal; its first think is the initial stagger."""
        timeout = model.env.timeout
        chunk, draws, at = -1, (), 0
        while True:
            if at == len(draws):
                chunk += 1
                draws = thinks.chunk(chunk)
                at = 0
            yield timeout(draws[at])
            at += 1
            tx = model.workload.new_transaction(terminal_id)
            model.submit(tx)
            yield tx.done_event


class ClosedClassicWorkload(ClosedPopulationWorkload):
    """Fixed terminal population with exponential think times."""

    name = "closed_classic"

    _KNOWN_OPTIONS = ()

    def __init__(self, params):
        super().__init__(params)
        self._unknown_options(self._KNOWN_OPTIONS)

    def draw_think(self, rng, mean):
        return rng.exponential(mean)

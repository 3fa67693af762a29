"""Workload tapes: the seed-only draw sequences a sweep shares.

Three kinds of draws are a pure function of the seed and the
parameters, each on streams that feed nothing else: transaction
content (the ``workload`` sequence: read sets, write sets and class
tags, from the ``workload.*`` streams), each terminal's think times
(``terminal.<id>``) and the uniform disk picks
(``physical.disk_choice``). The *k*-th transaction drawn at ``mpl=5``
is therefore identical to the *k*-th drawn at ``mpl=200``, under any
algorithm, on any resource tier. Every model reads all three through
:meth:`~repro.des.rng.StreamFactory.sequence`, in chunks, through a
cursor of its own.

A model built with a :class:`TapeStore` (``SystemModel(...,
tapes=store)``) takes the tape of its own ``(params, seed)`` as its
stream factory's recorder, so a tape holds recorded
:class:`~repro.des.rng.DrawSequence`\\ s only: each sequence is drawn
once, from the tape's private streams by the same drawer a stand-alone
model uses, and every grid point reads it. A model without a store
draws each sequence privately, one chunk at a time. Recorded chunks
are shareable because a spec's read set (tuple) and write set
(frozenset) are immutable: the engine keeps per-attempt state on the
Transaction a cursor mints, never on the sets.
"""

from repro.des.rng import DrawSequence, StreamFactory

__all__ = ["TapeStore", "WorkloadTape", "tape_key"]


def tape_key(params, seed):
    """The key of the draw sequences ``(params, seed)`` reads.

    The whole parameter set with ``mpl`` normalised: the one field a
    store's points vary (``ExperimentConfig.params_for`` changes
    nothing else, a retry reseeds), and one that changes only *when*
    values are drawn, never *what* the next draw returns.
    """
    return seed, params.with_changes(mpl=1)


class WorkloadTape:
    """The recorded draw sequences of one ``(params, seed)``.

    ``sequences`` holds them by name (see :meth:`sequence`); each one
    extends on demand, a chunk at a time, from the tape's private
    stream factory, so its contents are independent of how its
    readers pulled on it.
    """

    __slots__ = ("sequences", "_streams")

    def __init__(self, seed):
        self.sequences = {}
        self._streams = StreamFactory(seed)

    def sequence(self, name, make_drawer):
        """The recorded draw sequence named ``name``, shared.

        The first reader's ``make_drawer`` builds its drawer over the
        tape's private streams; one parameter set gives each name one
        drawer, so later readers' drawers would draw the same values.
        """
        sequence = self.sequences.get(name)
        if sequence is None:
            sequence = DrawSequence(
                make_drawer(self._streams), recorded=True
            )
            self.sequences[name] = sequence
        return sequence


class TapeStore:
    """Workload tapes keyed by :func:`tape_key`, shared across a sweep.

    The sweep runner hands its store to every point's model; points
    whose keys coincide — every mpl of one experiment — read one tape
    instead of re-drawing ``points × transactions`` specs, think times
    and disk picks. ``hits``/``misses`` make the sharing observable
    for tests and logs. A tape lives as long as its store: one sweep,
    or one worker process.
    """

    __slots__ = ("tapes", "hits", "misses")

    def __init__(self):
        self.tapes = {}
        self.hits = 0
        self.misses = 0

    def tape(self, params, seed):
        """The (possibly shared) tape for ``(params, seed)``."""
        key = tape_key(params, seed)
        tape = self.tapes.get(key)
        if tape is None:
            self.misses += 1
            tape = WorkloadTape(seed)
            self.tapes[key] = tape
        else:
            self.hits += 1
        return tape

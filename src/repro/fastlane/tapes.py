"""Precomputed workload tapes shared across grid points.

A transaction's read set, write set and class are a pure function of
``(workload seed, workload parameters, draw index)`` — the workload
streams are derived by name from the root seed and consumed only by
:class:`~repro.core.workload.WorkloadGenerator`, so the *k*-th
transaction generated at ``mpl=5`` is identical to the *k*-th generated
at ``mpl=200``, under any algorithm, on any resource tier.  A
model-owned generator would nevertheless re-draw that sequence from
scratch for every grid point.  A :class:`WorkloadTape` draws it once — with the real
``WorkloadGenerator``, so draw-identity holds by construction, not by a
re-implementation that could drift — and stores the immutable spec
tuples; a :class:`TapeWorkload` replays them as fresh
:class:`~repro.core.transaction.Transaction` objects for each model.

The specs are shareable because a Transaction's ``read_set`` (tuple)
and ``write_set`` (frozenset) are immutable: the engine assigns
per-attempt state on the Transaction, never mutates the sets, so every
simulation replaying a tape can alias the same tuples.

The other seed-only draws ride on the same tape. Each terminal's think
times (``terminal.<id>``) and the uniform disk picks
(``physical.disk_choice``) are also pure functions of the seed and the
parameters, and :func:`tape_key` covers every field they read. A model
built on a :class:`TapeWorkload` gets them through its stream factory
(``SystemModel`` hands it the tape as recorder), so the tape records
each sequence once (:class:`~repro.des.rng.DrawSequence`) and every point
reads it through a cursor of its own, instead of seeding 200 terminal
streams and re-drawing both sequences per point.
"""

from repro.core.transaction import Transaction
from repro.des.rng import DrawSequence, StreamFactory
from repro.workloads import create_workload_model

__all__ = ["TapeStore", "TapeWorkload", "WorkloadTape", "tape_key"]

#: Transactions materialized per tape extension. Large enough to
#: amortize the per-chunk bookkeeping, small enough that short smoke
#: runs don't precompute far past what they consume.
TAPE_CHUNK = 256


def tape_key(params, seed):
    """The key of the transaction sequence ``(params, seed)`` draws.

    The whole parameter set with ``mpl`` normalised: the one field a
    store's points vary (``ExperimentConfig.params_for`` changes
    nothing else, a retry reseeds), and one that changes only *when*
    transactions are drawn, never *what* the next draw returns.
    """
    return seed, params.with_changes(mpl=1)


class WorkloadTape:
    """The materialized transaction sequence of one ``(params, seed)``.

    Specs are ``(read_set, write_set, tx_class_name)`` tuples with
    ``read_set`` a tuple and ``write_set`` a frozenset — exactly the
    immutable forms Transaction normalizes its sets into, so replaying
    allocates no per-transaction copies.  The tape extends on demand in
    :data:`TAPE_CHUNK`-sized chunks; the drawing generator keeps its
    stream state between extensions, so tape contents are independent
    of the chunk boundaries and of how many consumers pulled on it.

    ``sequences`` holds the tape's recorded draw sequences by stream
    name (see :meth:`sequence`).
    """

    __slots__ = ("specs", "sequences", "_generator", "_streams")

    def __init__(self, params, seed):
        self.specs = []
        self.sequences = {}
        self._streams = StreamFactory(seed)
        # The tape's private generator over a private stream factory:
        # same seed derivation, same draw code, therefore the same
        # sequence every model-owned generator would produce. Built
        # through the workload model so tapes replay whatever content
        # source the model supplies (heavy-tailed sizes included).
        workload_model = create_workload_model(params)
        if not workload_model.tapeable:
            raise ValueError(
                f"workload model {workload_model.name!r} is not "
                f"tapeable; the sweep runner must build a per-model "
                f"source instead"
            )
        self._generator = workload_model.build_generator(
            params, self._streams
        )

    def __len__(self):
        return len(self.specs)

    def spec(self, index):
        """The ``index``-th transaction spec, extending the tape as needed."""
        specs = self.specs
        while index >= len(specs):
            self._extend(TAPE_CHUNK)
        return specs[index]

    def sequence(self, name, draw_chunk):
        """The recorded draw sequence of stream ``name``, shared.

        Drawn from the tape's private stream of that name by the first
        reader's ``draw_chunk``; one parameter set gives each name one
        drawer, so later readers' drawers would draw the same values.
        """
        sequence = self.sequences.get(name)
        if sequence is None:
            sequence = DrawSequence(
                self._streams.stream(name), draw_chunk, recorded=True
            )
            self.sequences[name] = sequence
        return sequence

    def _extend(self, n):
        generator = self._generator
        append = self.specs.append
        for _ in range(n):
            tx = generator.new_transaction(terminal_id=0)
            append((tx.read_set, tx.write_set, tx.tx_class))


class TapeWorkload:
    """A model's workload source replaying a shared :class:`WorkloadTape`.

    Satisfies the engine's workload protocol (``new_transaction`` plus
    the ``generated`` counter) and reproduces ``WorkloadGenerator``
    byte-for-byte: the *k*-th call returns a Transaction with id
    ``k+1``, the tape's *k*-th read/write sets, and the same class tag.
    One TapeWorkload per model — the ``generated`` cursor is the
    model's position on the tape — while the tape itself is shared by
    every point of the sweep with the same :func:`tape_key`.
    """

    __slots__ = ("params", "tape", "generated")

    def __init__(self, params, tape):
        self.params = params
        self.tape = tape
        self.generated = 0

    def new_transaction(self, terminal_id):
        """The next taped transaction, bound to ``terminal_id``."""
        index = self.generated
        specs = self.tape.specs
        if index >= len(specs):
            self.tape.spec(index)
        read_set, write_set, tx_class = specs[index]
        self.generated = index + 1
        tx = Transaction(
            tx_id=index + 1,
            terminal_id=terminal_id,
            read_set=read_set,
            write_set=write_set,
        )
        tx.tx_class = tx_class
        return tx


class TapeStore:
    """Workload tapes keyed by :func:`tape_key`, shared across a sweep.

    The sweep runner asks the store for a workload per (params,
    seed); points whose keys coincide — every mpl of one experiment —
    replay one tape instead of re-drawing
    ``points × transactions`` specs, think times and disk picks.
    ``hits``/``misses`` make the sharing observable for tests and
    logs. A tape lives as long as its store: one sweep, or one worker
    process.
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
            tape = WorkloadTape(params, seed)
            self.tapes[key] = tape
        else:
            self.hits += 1
        return tape

    def workload(self, params, seed):
        """A fresh :class:`TapeWorkload` over the key's tape."""
        return TapeWorkload(params, self.tape(params, seed))

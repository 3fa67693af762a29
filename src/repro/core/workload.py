"""Transaction content per the paper's workload model.

A transaction reads ``N ~ Uniform[min_size, max_size]`` distinct objects
chosen uniformly without replacement from the ``db_size`` objects; each
read object is also written with probability ``write_prob``.

Content is a pure function of the seed and the parameters: the
``workload.*`` streams feed nothing else. :class:`WorkloadGenerator`
draws it as immutable specs, :data:`CONTENT_CHUNK` at a time, into the
``workload`` draw sequence (:class:`~repro.des.rng.DrawSequence`); a
model reads that sequence through its own :class:`ContentCursor`, which
mints each :class:`~repro.core.transaction.Transaction`. A sweep
records the sequence once on its workload tape and every grid point
reads it (:mod:`repro.fastlane.tapes`); a stand-alone model draws its
own, holding one chunk at a time.
"""

from bisect import bisect_right

from repro.core.transaction import Transaction
from repro.des.rng import RandomStream

__all__ = ["CONTENT_CHUNK", "ContentCursor", "WorkloadGenerator"]

#: Transaction specs drawn per chunk of the content sequence. Small,
#: so a stand-alone model that stops mid-chunk draws few specs it never
#: hands out; chunking changes no value.
CONTENT_CHUNK = 32


class WorkloadGenerator:
    """Draws transaction specs from seeded random streams.

    A spec is ``(read_set, write_set, class_name)``: a tuple, a
    frozenset and the class's name (None without a workload mix) — the
    immutable forms a Transaction keeps, so every model reading a
    recorded sequence can alias them. ``draw_size(rng, min_size,
    max_size)`` draws the read-set size from the ``workload.size``
    stream (the paper's uniform draw by default; the workload model's
    :meth:`~repro.workloads.base.WorkloadModel.draw_size`).
    """

    def __init__(self, params, streams, draw_size=RandomStream.uniform_int):
        self.params = params
        self._draw_size = draw_size
        self._size_rng = streams.stream("workload.size")
        self._objects_rng = streams.stream("workload.objects")
        self._write_rng = streams.stream("workload.writes")
        self._class_rng = streams.stream("workload.class")
        if params.workload_mix is not None:
            # Cumulative weights, summed once here in class order; the
            # same left-to-right additions the per-draw loop used to
            # repeat, so the boundaries (and every draw) are unchanged.
            self._class_cumulative = []
            cumulative = 0.0
            for cls in params.workload_mix:
                cumulative += cls.weight
                self._class_cumulative.append(cumulative)
            self._total_weight = cumulative
        else:
            self._class_cumulative = None

    def _draw_class(self):
        """Weighted class choice, or None for the single-class model."""
        if self._class_cumulative is None:
            return None
        pick = self._class_rng.random() * self._total_weight
        # bisect_right finds the first boundary strictly above pick —
        # exactly the old loop's ``pick < cumulative`` exit. The clamp
        # covers pick rounding up onto the final boundary.
        index = bisect_right(self._class_cumulative, pick)
        mix = self.params.workload_mix
        return mix[index] if index < len(mix) else mix[-1]

    def spec(self):
        """The next transaction spec ``(read_set, write_set, class)``."""
        params = self.params
        tx_class = self._draw_class()
        if tx_class is None:
            min_size, max_size = params.min_size, params.max_size
            write_prob = params.write_prob
        else:
            min_size, max_size = tx_class.min_size, tx_class.max_size
            write_prob = tx_class.write_prob
        size = self._draw_size(self._size_rng, min_size, max_size)
        if params.has_hotspot:
            read_set = self._skewed_read_set(size)
        else:
            read_set = self._objects_rng.sample_without_replacement(
                params.db_size, size
            )
        # One batched draw per transaction instead of one call per
        # object; the flags come out in read-set order, exactly as the
        # per-object loop drew them.
        write_flags = self._write_rng.bernoulli_many(write_prob, size)
        write_set = frozenset(
            obj for obj, write in zip(read_set, write_flags) if write
        )
        return (
            tuple(read_set), write_set,
            None if tx_class is None else tx_class.name,
        )

    def chunk(self):
        """The next :data:`CONTENT_CHUNK` specs (a content-sequence drawer)."""
        spec = self.spec
        return [spec() for _ in range(CONTENT_CHUNK)]

    def _skewed_read_set(self, size):
        """Draw ``size`` distinct objects under the hotspot skew.

        Each access independently targets the hot region (the first
        ``hot_object_count`` objects) with probability
        ``hot_access_prob``; per region, objects are drawn uniformly
        without replacement. If one region cannot supply its share of
        distinct objects the overflow spills into the other.
        """
        params = self.params
        hot_size = params.hot_object_count()
        cold_size = params.db_size - hot_size
        hot_wanted = sum(
            self._objects_rng.bernoulli_many(params.hot_access_prob, size)
        )
        hot_wanted = min(hot_wanted, hot_size)
        cold_wanted = size - hot_wanted
        if cold_wanted > cold_size:  # spill back into the hot region
            hot_wanted += cold_wanted - cold_size
            cold_wanted = cold_size
        hot_objects = self._objects_rng.sample_without_replacement(
            hot_size, hot_wanted
        )
        cold_objects = [
            hot_size + obj
            for obj in self._objects_rng.sample_without_replacement(
                cold_size, cold_wanted
            )
        ]
        read_set = hot_objects + cold_objects
        self._objects_rng.shuffle(read_set)
        return read_set


class ContentCursor:
    """A model's transaction source: one reader of a content sequence.

    The *k*-th call of :meth:`new_transaction` returns a Transaction
    with id ``k``, the sequence's *k*-th spec, and the caller's
    terminal. ``generated`` counts the transactions handed out, not
    the specs drawn ahead of them. One cursor per model; the sequence
    is the model's own or the sweep's recorded one.
    """

    __slots__ = ("sequence", "generated", "_chunk_index", "_chunk", "_at")

    def __init__(self, sequence):
        self.sequence = sequence
        self.generated = 0
        self._chunk_index = -1
        self._chunk = ()
        self._at = 0

    def new_transaction(self, terminal_id):
        """The next transaction, bound to ``terminal_id``."""
        at = self._at
        chunk = self._chunk
        if at == len(chunk):
            self._chunk_index += 1
            self._chunk = chunk = self.sequence.chunk(self._chunk_index)
            at = 0
        read_set, write_set, tx_class = chunk[at]
        self._at = at + 1
        self.generated = tx_id = self.generated + 1
        tx = Transaction(
            tx_id=tx_id,
            terminal_id=terminal_id,
            read_set=read_set,
            write_set=write_set,
        )
        tx.tx_class = tx_class
        return tx

"""The ``buffered`` resource model: a main-memory buffer pool.

The classic CPU/disk tier with a database buffer cache in front of the
disks, after Thomasian's heterogeneous data access modeling
(arXiv:2404.02276): an object read probes the cache first and consumes
disk service only on a miss, so the effective I/O demand per
transaction drops with the hit ratio while CPU demand is unchanged.
Deferred updates are written through at commit time (the write-back is
charged as disk service at deferred-update time, never hidden), and the
written page becomes resident.

Two probe policies; ``params.buffer_hit_ratio`` picks one:

* ``lru`` (no hit ratio) — an exact LRU directory over object ids with
  capacity ``params.buffer_capacity`` pages (default: one tenth of the
  database). Deterministic given the access sequence: no RNG draws, so
  the classic model's streams are untouched.
* ``fixed`` (a hit ratio) — every probe hits with probability
  ``params.buffer_hit_ratio``, drawn from the dedicated
  ``resources.buffer`` stream — the analytic-model convention when the
  miss process, not the reference pattern, is what's being studied.

The model is a configuration of the one resource pipeline
(:mod:`repro.resources.base`): one site, uniform disk placement, and a
buffer attached at construction; the probe, the fill and the service
legs are the pipeline's. The pipeline counts every hit, miss and
write-back itself; the counters surface via :meth:`buffer_summary` in
run totals, ``SimulationResult.diagnostics``, and the sweep report's
hit-ratio table. ``buffer_hit``/``buffer_miss``/``buffer_writeback``
bus events are built only for observers (the bus's ``wants_buffer``
flag).
"""

from repro.resources.base import ResourceModel

#: Default LRU capacity when ``buffer_capacity`` is unset: one tenth of
#: the database, the classic rule-of-thumb buffer-to-data ratio.
DEFAULT_CAPACITY_FRACTION = 10


class BufferedResourceModel(ResourceModel):
    """Classic tier + buffer pool: disk service only on a miss."""

    name = "buffered"

    def __init__(self, env, params, streams, bus=None):
        super().__init__(env, params, streams, bus=bus)
        if params.buffer_hit_ratio is not None:
            self.policy = "fixed"
            self._attach_buffer(hit_ratio=params.buffer_hit_ratio)
        else:
            self.policy = "lru"
            self._attach_buffer(
                params.buffer_capacity
                if params.buffer_capacity is not None
                else max(1, params.db_size // DEFAULT_CAPACITY_FRACTION)
            )

    def buffer_summary(self):
        return {
            "policy": self.policy,
            "capacity": self.buffer_capacity,
            **self._buffer_counts(),
        }

    def describe_resources(self):
        labels = super().describe_resources()
        labels["buffer"] = (
            f"fixed:{self.params.buffer_hit_ratio}"
            if self.policy == "fixed"
            else f"lru:{self.buffer_capacity}"
        )
        return labels

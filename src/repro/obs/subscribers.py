"""The subscriber base class and the trace line layout.

Subscribers are pure observers: they never mutate model state, which
is what keeps fixed-seed results bit-identical whatever set of
subscribers is attached. No counter a report reads depends on one; the
engine, the resource model and the fault injector keep their own.
"""

from repro.core.transaction import Transaction
from repro.obs.events import (
    ALL_KINDS,
    LIFECYCLE_KINDS,
    TX_COMMIT_POINT,
    TX_COMPLETE,
    TX_SUBMIT,
)


def scalar_fields(kind, fields):
    """Flatten one event's fields to the trace line layout.

    Live :class:`~repro.core.transaction.Transaction` objects collapse
    to their ids. A lifecycle line also carries the transaction's
    ``attempt``; ``submit`` adds its ``terminal`` and read/write set
    sizes, ``commit_point`` the number of installed ``writes`` and
    ``commit`` the ``response`` time. Every other field, and every
    field of any other kind, passes through unchanged.
    """
    flat = {}
    tx = fields.get("tx")
    if isinstance(tx, Transaction) and kind in LIFECYCLE_KINDS:
        flat["tx"] = tx.id
        flat["attempt"] = tx.attempts
        if kind == TX_SUBMIT:
            flat["terminal"] = tx.terminal_id
            flat["reads"] = len(tx.read_set)
            flat["writes"] = len(tx.write_set)
        elif kind == TX_COMMIT_POINT:
            flat["writes"] = len(tx.install_write_set)
        elif kind == TX_COMPLETE:
            flat["response"] = tx.response_time()
    for key, value in fields.items():
        if key not in flat:
            flat[key] = value.id if isinstance(value, Transaction) else value
    return flat


class Subscriber:
    """Convenience base: route every subscribed kind to ``on_event``.

    Subclasses either set ``kinds`` (an iterable of event kinds; None
    means every kind in :data:`~repro.obs.events.ALL_KINDS`) and
    implement ``on_event(time, kind, fields)``, or override
    :meth:`handlers` entirely for per-kind dispatch without the extra
    indirection.
    """

    kinds = None

    def handlers(self):
        kinds = ALL_KINDS if self.kinds is None else self.kinds
        on_event = self.on_event
        table = {}
        for kind in kinds:
            # Bind the kind now so the per-event call carries it.
            table[kind] = (
                lambda time, fields, _kind=kind:
                on_event(time, _kind, fields)
            )
        return table

    def on_event(self, time, kind, fields):
        raise NotImplementedError

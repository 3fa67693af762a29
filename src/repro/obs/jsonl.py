"""Streaming JSONL sink: the one event-trace writer.

A :class:`JsonlSink` writes one event per line as it happens, so
arbitrarily long runs can be traced (the CLI's ``--trace`` writes one
file per sweep point through this class). Lines are self-describing,
in the layout of :func:`~repro.obs.subscribers.scalar_fields`::

    {"time": 12.25, "kind": "restart", "tx": 91, "attempt": 3,
     "reason": "deadlock"}

Transaction objects are flattened to ids; any other non-JSON value is
serialized via ``repr``. Give the sink an :class:`io.StringIO` to keep
a short trace in memory, and :func:`read_jsonl` to load it back.
"""

import json

from repro.obs.subscribers import Subscriber, scalar_fields


class JsonlSink(Subscriber):
    """Writes subscribed events to a JSONL file or file-like object.

    ``kinds`` restricts the subscription (None = every known kind);
    restricting at the subscription — rather than filtering received
    events — means unobserved high-volume kinds are never emitted at
    all. The sink owns (and closes) the file only when given a path.
    """

    def __init__(self, destination, kinds=None):
        self.kinds = frozenset(kinds) if kinds is not None else None
        if hasattr(destination, "write"):
            self._file = destination
            self._owns_file = False
            self.path = getattr(destination, "name", None)
        else:
            self._file = open(destination, "w")
            self._owns_file = True
            self.path = destination
        self.events_written = 0
        self._closed = False

    def on_event(self, time, kind, fields):
        if self._closed or getattr(self._file, "closed", False):
            # A simulation abandoned mid-run can still emit during
            # garbage collection (suspended generators run their
            # ``finally`` clauses, and the file object may have been
            # finalized first); those late events are dropped.
            return
        record = {"time": time, "kind": kind}
        record.update(scalar_fields(kind, fields))
        self._file.write(json.dumps(record, default=repr))
        self._file.write("\n")
        self.events_written += 1

    def close(self):
        """Flush, close if the sink opened the file, and stop writing."""
        if self._closed:
            return
        self._closed = True
        self._file.flush()
        if self._owns_file:
            self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


def read_jsonl(source):
    """Load a sink's output back as a list of dicts (tests, notebooks).

    ``source`` is a path or a readable text file object, read from its
    current position.
    """
    if hasattr(source, "read"):
        return [json.loads(line) for line in source if line.strip()]
    with open(source) as f:
        return read_jsonl(f)

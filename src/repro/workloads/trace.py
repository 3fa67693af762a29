"""Deterministic trace playback (``workload_model="trace"``).

Plays a recorded transaction stream back into the engine: each JSONL
record names a transaction's read/write sets, an optional arrival time,
and an optional class tag. Playback is deterministic — same trace, same
seed, same run — which makes recorded production workloads and
hand-built adversarial schedules directly replayable under any CC
algorithm and any physical tier.

Record format:

    {"reads": [1, 5, 9], "writes": [5], "at": 0.25, "class": "small"}

``at`` is the absolute submission time within the trace (nondecreasing
when present); records without ``at`` arrive on a fixed deterministic
grid of ``1/rate`` seconds (``rate`` defaults to
``params.arrival_rate``). ``writes`` must be a subset of ``reads``.

**Feedback / re-entry routing.** With ``feedback_prob > 0``, each
*completed* transaction re-enters the system with that probability
after an exponential ``feedback_delay`` — the probabilistic routing of
open queueing networks. A re-entry is a fresh transaction (new id, own
response time) carrying ``reentry_of`` so the invariant checker can
verify flow balance: re-entries never exceed completions. Feedback
draws come from a dedicated ``trace_feedback`` stream, so the trace
itself replays identically whether or not routing is enabled.

Spec keys: ``path`` (required), ``rate``, ``cycle`` (replay the trace
cyclically instead of stopping at its end), ``feedback_prob``,
``feedback_delay``.
"""

import json
from itertools import count

from repro.core.transaction import Transaction
from repro.workloads.base import WorkloadModel

__all__ = ["TraceWorkloadModel", "TraceSource", "load_workload_trace",
           "save_workload_trace", "trace_from_history", "trace_record"]


def trace_record(reads, writes=(), at=None, tx_class=None):
    """One validated trace record ``(at, reads, writes, tx_class)``.

    The trace format's one per-record validation, shared by files
    (:func:`load_workload_trace`) and in-memory records (e.g.
    :func:`trace_from_history`): reads must be non-empty and distinct,
    writes a subset of reads. Raises ``ValueError``.
    """
    reads = tuple(reads)
    writes = frozenset(writes)
    if not reads:
        raise ValueError("empty read set")
    if len(set(reads)) != len(reads):
        raise ValueError("duplicate reads")
    if not writes <= set(reads):
        raise ValueError("writes must be a subset of reads")
    return (at, reads, writes, tx_class)


def trace_from_history(transactions):
    """Trace records re-playing a run's committed transactions.

    ``transactions`` are the committed transactions (anything with
    ``read_set`` and ``write_set``), collected by a ``commit_point``
    handler on the model's bus. Lets you re-run exactly the
    transactions one simulation committed (e.g. replay a blocking run's
    workload under MVTO): write the records with
    :func:`save_workload_trace` and run ``workload_model="trace"`` over
    the file.
    """
    return [
        trace_record(tx.read_set, tx.write_set) for tx in transactions
    ]


def load_workload_trace(path):
    """Parse a workload-trace JSONL file into validated record tuples.

    Returns a list of :func:`trace_record` tuples
    ``(at, reads, writes, tx_class)`` with ``at`` possibly None; arrival
    times must also be nondecreasing. Errors name ``path:line``.
    """
    records = []
    last_at = None
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{lineno}: invalid JSON ({error})"
                ) from None
            at = payload.get("at")
            if at is not None:
                at = float(at)
                if at < 0:
                    raise ValueError(
                        f"{path}:{lineno}: negative arrival time {at}"
                    )
                if last_at is not None and at < last_at:
                    raise ValueError(
                        f"{path}:{lineno}: arrival times must be "
                        f"nondecreasing ({at} after {last_at})"
                    )
                last_at = at
            try:
                records.append(trace_record(
                    payload.get("reads", ()), payload.get("writes", ()),
                    at, payload.get("class"),
                ))
            except ValueError as error:
                raise ValueError(f"{path}:{lineno}: {error}") from None
    if not records:
        raise ValueError(f"{path}: trace holds no records")
    return records


def save_workload_trace(path, records):
    """Write ``(at, reads, writes, tx_class)`` tuples as trace JSONL."""
    with open(path, "w", encoding="utf-8") as handle:
        for at, reads, writes, tx_class in records:
            payload = {"reads": list(reads), "writes": sorted(writes)}
            if at is not None:
                payload["at"] = at
            if tx_class is not None:
                payload["class"] = tx_class
            handle.write(json.dumps(payload) + "\n")


class TraceSource:
    """The trace model's content source (the engine's ``workload``).

    Deals :func:`trace_record` records in order (cycling when
    configured) through ``new_transaction``, counting them in
    ``generated``; re-entries mint fresh transactions that inherit a
    parent's sets, counted in ``reentries``.
    """

    def __init__(self, records, cycle):
        if not records:
            raise ValueError("trace holds no records")
        self.records = records
        self.cycle = cycle
        self.generated = 0
        self.reentries = 0
        self._ids = count(1)

    @property
    def exhausted(self):
        return not self.cycle and self.generated >= len(self.records)

    def new_transaction(self, terminal_id):
        index = self.generated
        if self.cycle:
            index %= len(self.records)
        _, reads, writes, tx_class = self.records[index]
        self.generated += 1
        tx = Transaction(
            tx_id=next(self._ids),
            terminal_id=terminal_id,
            read_set=reads,
            write_set=writes,
        )
        tx.tx_class = tx_class
        return tx

    def reentry_transaction(self, parent):
        """A fresh transaction re-entering with ``parent``'s sets."""
        self.reentries += 1
        tx = Transaction(
            tx_id=next(self._ids),
            terminal_id=parent.terminal_id,
            read_set=parent.read_set,
            write_set=parent.write_set,
        )
        tx.tx_class = parent.tx_class
        tx.reentry_of = parent.id
        return tx


class TraceWorkloadModel(WorkloadModel):
    """Deterministic JSONL playback with probabilistic feedback."""

    name = "trace"
    open_system = True

    _KNOWN_OPTIONS = ("path", "rate", "cycle", "feedback_prob",
                      "feedback_delay")

    def __init__(self, params):
        super().__init__(params)
        self._unknown_options(self._KNOWN_OPTIONS)
        self.path = self._require_option("path")
        self.cycle = bool(self.options.get("cycle", False))
        self.rate = float(self.options.get("rate", params.arrival_rate))
        if self.rate <= 0:
            raise ValueError(f"trace rate must be > 0, got {self.rate}")
        self.feedback_prob = float(self.options.get("feedback_prob", 0.0))
        if not 0.0 <= self.feedback_prob < 1.0:
            raise ValueError(
                f"feedback_prob must be in [0, 1), got "
                f"{self.feedback_prob}"
            )
        self.feedback_delay = float(
            self.options.get("feedback_delay", 0.0)
        )
        if self.feedback_delay < 0:
            raise ValueError(
                f"feedback_delay must be >= 0, got {self.feedback_delay}"
            )
        self.records = load_workload_trace(self.path)

    def build_generator(self, streams):
        """The trace's records, not the ``workload`` draw sequence."""
        return TraceSource(self.records, self.cycle)

    def summary(self, model):
        return {
            "trace_records": len(self.records),
            "feedback_prob": self.feedback_prob,
            "reentries": model.workload.reentries,
        }

    def start(self, model):
        model.env.process(self._playback(model))

    def _arrival_gaps(self):
        """Per-record inter-arrival gaps, one trace pass."""
        gaps = []
        previous = 0.0
        grid = 1.0 / self.rate
        for at, _, _, _ in self.records:
            if at is None:
                gaps.append(grid)
                previous += grid
            else:
                gaps.append(max(0.0, at - previous))
                previous = at
        return gaps

    def _playback(self, model):
        env = model.env
        source = model.workload
        gaps = self._arrival_gaps()
        while not source.exhausted:
            gap = gaps[source.generated % len(gaps)]
            if gap > 0:
                yield env.timeout(gap)
            tx = source.new_transaction(terminal_id=0)
            self._submit_with_feedback(model, tx)

    def _submit_with_feedback(self, model, tx):
        model.submit(tx)
        if self.feedback_prob > 0:
            model.env.process(self._feedback_watcher(model, tx))

    def _feedback_watcher(self, model, tx):
        """Route a completed transaction back in with feedback_prob."""
        yield tx.done_event
        rng = model.streams.stream("trace_feedback")
        if not rng.bernoulli(self.feedback_prob):
            return
        delay = rng.exponential(self.feedback_delay)
        if delay > 0:
            yield model.env.timeout(delay)
        # The re-entry is itself subject to further feedback — the
        # geometric visit count of a feedback queueing network.
        self._submit_with_feedback(
            model, model.workload.reentry_transaction(tx)
        )

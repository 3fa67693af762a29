"""The instrumentation event taxonomy.

Every operational signal the engine, physical model, or fault injector
can report flows through the :class:`~repro.obs.bus.InstrumentationBus`
as one of these event kinds. The kind strings are **stable**: they
appear verbatim in JSONL event traces and checkpointed diagnostics,
so renaming one is a format change.

Transaction lifecycle (the closed model of paper Figures 1-2):

* ``submit`` — first entry into the ready queue (attempt 0);
* ``resubmit`` — re-entry into the ready queue after a restart;
* ``admit`` — admitted under the multiprogramming limit, attempt begins;
* ``block`` — a concurrency-control request made the transaction wait;
* ``restart`` — the attempt was aborted and will re-run;
* ``commit_point`` — writes installed; the transaction can no longer
  abort (deferred-update I/O may still follow);
* ``commit`` — the attempt completed (kept as ``commit`` — not
  ``complete`` — for trace compatibility).

Concurrency-control decisions: ``block``/``restart`` above record the
negative decisions; ``cc_grant`` records a granted read/write request
(high volume — only emitted when someone subscribes to it).

Resources: ``resource_busy``/``resource_idle`` mark a CPU or disk
server starting and finishing one service period (high volume; only
emitted when subscribed).

Buffer pool (the ``buffered`` resource model):
``buffer_hit``/``buffer_miss`` record the cache probe outcome of one
object read, ``buffer_writeback`` one deferred update written through
at commit time. These drive the hit-ratio accounting that surfaces in
``SimulationResult.diagnostics`` and the sweep report.

Distributed tier (the ``distributed`` resource model and the ``2pc``
commit protocol): ``msg_send``/``msg_recv`` bracket one cross-node
message; ``2pc_prepare``/``2pc_vote``/``2pc_decide`` record the
two-phase commit handshake — the invariant checker enforces
prepare/vote matching and vote quorum on exactly these kinds.

Faults (:mod:`repro.faults`): ``disk_fail``/``disk_repair``,
``cpu_degrade``/``cpu_restore``, ``access_fault``.

``sample`` carries one row of a
:class:`~repro.obs.timeseries.TimeSeriesSampler`.

Event *fields* are live model objects where that is cheapest — in
particular lifecycle events carry the :class:`~repro.core.transaction.
Transaction` itself under ``tx`` — and the
:class:`~repro.obs.jsonl.JsonlSink` flattens them to the trace line
layout of :func:`~repro.obs.subscribers.scalar_fields`.
"""

# -- transaction lifecycle ----------------------------------------------------
TX_SUBMIT = "submit"
TX_RESUBMIT = "resubmit"
TX_ADMIT = "admit"
TX_BLOCK = "block"
TX_RESTART = "restart"
TX_COMMIT_POINT = "commit_point"
TX_COMPLETE = "commit"

# -- concurrency-control decisions --------------------------------------------
CC_GRANT = "cc_grant"

# -- physical resources -------------------------------------------------------
RESOURCE_BUSY = "resource_busy"
RESOURCE_IDLE = "resource_idle"

# -- buffer pool (buffered resource model) ------------------------------------
BUFFER_HIT = "buffer_hit"
BUFFER_MISS = "buffer_miss"
BUFFER_WRITEBACK = "buffer_writeback"

# -- cross-node messaging (distributed resource model) ------------------------
MSG_SEND = "msg_send"
MSG_RECV = "msg_recv"

# -- commit protocols (two-phase commit) ---------------------------------------
TWO_PC_PREPARE = "2pc_prepare"
TWO_PC_VOTE = "2pc_vote"
TWO_PC_DECIDE = "2pc_decide"

# -- fault injection ----------------------------------------------------------
FAULT_DISK_FAIL = "disk_fail"
FAULT_DISK_REPAIR = "disk_repair"
FAULT_CPU_DEGRADE = "cpu_degrade"
FAULT_CPU_RESTORE = "cpu_restore"
FAULT_ACCESS = "access_fault"

# -- derived signals ----------------------------------------------------------
SAMPLE = "sample"

#: The lifecycle kinds, in causal order.
LIFECYCLE_KINDS = (
    TX_SUBMIT,
    TX_RESUBMIT,
    TX_ADMIT,
    TX_BLOCK,
    TX_RESTART,
    TX_COMMIT_POINT,
    TX_COMPLETE,
)

#: Kinds emitted by the fault injector.
FAULT_KINDS = (
    FAULT_DISK_FAIL,
    FAULT_DISK_REPAIR,
    FAULT_CPU_DEGRADE,
    FAULT_CPU_RESTORE,
    FAULT_ACCESS,
)

#: Kinds emitted by the physical model.
RESOURCE_KINDS = (RESOURCE_BUSY, RESOURCE_IDLE)

#: Kinds emitted by the buffered resource model's cache.
BUFFER_KINDS = (BUFFER_HIT, BUFFER_MISS, BUFFER_WRITEBACK)

#: Kinds emitted by the distributed model's network legs: one
#: ``msg_send``/``msg_recv`` pair brackets every cross-node message
#: (prepare, vote and decision messages of the commit protocol
#: included).
MESSAGE_KINDS = (MSG_SEND, MSG_RECV)

#: Kinds emitted by the two-phase commit protocol: one ``2pc_prepare``
#: per (transaction, participant), the matching ``2pc_vote`` when the
#: participant's acknowledgement arrives, and one ``2pc_decide`` when
#: the coordinator commits with a full quorum of votes.
COMMIT_PROTOCOL_KINDS = (TWO_PC_PREPARE, TWO_PC_VOTE, TWO_PC_DECIDE)

#: Every kind the built-in emitters produce. Subscribers with
#: ``kinds = None`` are registered for exactly this set.
ALL_KINDS = frozenset(
    LIFECYCLE_KINDS
    + FAULT_KINDS
    + RESOURCE_KINDS
    + BUFFER_KINDS
    + MESSAGE_KINDS
    + COMMIT_PROTOCOL_KINDS
    + (CC_GRANT, SAMPLE)
)

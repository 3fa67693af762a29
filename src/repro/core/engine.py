"""The queuing model of a single-site DBMS (paper Figure 1).

Transactions originate from the configured workload model (see
:mod:`repro.workloads`) — the paper's closed terminal pool by default.
At most ``mpl`` transactions are *active* (receiving or waiting for
service inside the DBMS) at once; excess arrivals wait in the ready
queue. An active
transaction alternates concurrency-control requests with object accesses
(all reads first, then all writes), optionally thinks between its reads
and writes (interactive workloads), then reaches its commit point,
writes its deferred updates, and completes. A restarted transaction
re-runs with the *same* read and write sets, re-entering the back of the
ready queue after an optional restart delay.

Every operational signal leaves the engine through one instrumentation
bus (:mod:`repro.obs`): metrics, tracing, invariant checking (serial
replay included) and any extra subscribers all consume the same event
stream. With only
the default metrics subscriber attached, optional high-volume kinds
(commit points, CC grants, resource busy/idle) are skipped before their
event fields are even built.
"""

from collections import deque
from itertools import count

from repro.cc import (
    DELAY_ADAPTIVE,
    DELAY_NONE,
    INSTALL_AT_PRE_COMMIT,
    ConcurrencyControl,
    RestartTransaction,
    create_algorithm,
    create_commit_protocol,
)
from repro.core.errors import RestartLivelockError
from repro.core.metrics import MetricsCollector
from repro.core.params import (
    DELAY_MODE_ADAPTIVE_ALL,
    DELAY_MODE_DEFAULT,
    DELAY_MODE_FIXED_ALL,
    DELAY_MODE_NONE_ALL,
)
from repro.core.store import ObjectStore
from repro.core.transaction import TxState
from repro.des import Environment, Interrupt, StreamFactory
from repro.faults import FaultInjector
from repro.obs import InstrumentationBus, MetricsSubscriber
from repro.obs.events import (
    CC_GRANT,
    TX_ADMIT,
    TX_BLOCK,
    TX_COMMIT_POINT,
    TX_COMPLETE,
    TX_RESTART,
    TX_RESUBMIT,
    TX_SUBMIT,
)
from repro.resources import create_resource_model
from repro.workloads import create_workload_model

__all__ = ["SystemModel"]


class SystemModel:
    """One configured instance of the complete database model.

    Implements the :class:`repro.cc.EngineHooks` protocol (block counting
    and remote aborts) for the attached algorithm.

    ``subscribers`` attaches additional instrumentation-bus consumers
    (e.g. :class:`repro.obs.TimeSeriesSampler`,
    :class:`repro.obs.JsonlSink`, :class:`repro.obs.InvariantChecker`).
    """

    def __init__(self, params, algorithm="blocking", seed=42,
                 workload=None, subscribers=()):
        self.params = params
        self.env = Environment()
        #: The unified instrumentation bus all events flow through.
        self.bus = InstrumentationBus(self.env)
        self.streams = StreamFactory(seed)
        if isinstance(algorithm, ConcurrencyControl):
            self.cc = algorithm
        else:
            self.cc = create_algorithm(algorithm)
        self.cc.attach(self.env, hooks=self)
        #: The origination layer, constructed from the workload-model
        #: registry (repro.workloads) per params.workload_model.
        self.workload_model = create_workload_model(params)
        # Anything with a new_transaction(terminal_id) method works as a
        # workload source; the fastlane substitutes tape replays here.
        self.workload = workload or self.workload_model.build_generator(
            params, self.streams
        )
        #: The commit-protocol seam around the commit point (repro.cc):
        #: the paper's atomic ``single_site`` point by default, or 2PC
        #: for multi-site runs. A null protocol keeps the commit path
        #: bit-identical to pre-seam builds (one truth test per commit).
        self.commit_protocol = create_commit_protocol(
            params.commit_protocol
        ).attach(self)
        self._protocol_active = not self.commit_protocol.is_null
        #: The physical tier, constructed from the resource-model
        #: registry (repro.resources) per params.resource_model.
        self.physical = create_resource_model(
            params.resource_model, self.env, params, self.streams,
            bus=self.bus,
        )
        #: Fault injector driving params.faults, or None when the run
        #: is healthy. A null spec starts no injector at all, so the
        #: healthy path stays bit-identical to pre-fault builds.
        self.fault_injector = None
        if params.faults is not None and not params.faults.is_null:
            self.fault_injector = FaultInjector(
                self.env, params.faults, self.physical, self.streams,
                bus=self.bus,
            ).start()
        self.metrics = MetricsCollector(
            self.env, params, self.physical,
            open_system=self.workload_model.open_system,
        )
        # Subscriber attach order fixes dispatch order: metrics first
        # (the default fast path), then caller extras.
        self.bus.attach(MetricsSubscriber(self.metrics), model=self)
        for subscriber in subscribers:
            self.bus.attach(subscriber, model=self)
        self.store = ObjectStore()
        self.ready_queue = deque()
        self.active_count = 0
        #: Admission limit; starts at params.mpl. Mutable at run time so
        #: adaptive controllers (repro.analysis.adaptive) can retune it.
        self.mpl_limit = params.mpl
        self._ts_seq = count()
        self._same_instant_restarts = {}
        self._int_think_rng = self.streams.stream("int_think")
        self._restart_delay_rng = self.streams.stream("restart_delay")
        self.workload_model.start(self)

    # -- EngineHooks protocol ------------------------------------------------

    def count_block(self, tx):
        self.bus.emit(TX_BLOCK, tx=tx)

    def abort_remote(self, tx, error):
        """Abort a transaction that is not waiting on a CC event.

        Used by wound-wait for victims that are running, queued at a
        resource, or thinking. Interrupting unwinds the victim's process;
        its resource context managers release cleanly.
        """
        process = tx.process
        if process is not None and process.is_alive:
            process.interrupt(error)

    # -- timestamps --------------------------------------------------------------

    def next_timestamp(self):
        """A unique, strictly increasing (time, sequence) timestamp."""
        return (self.env.now, next(self._ts_seq))

    # -- submission and admission control --------------------------------------------

    def submit(self, tx):
        """Submit a freshly originated transaction into the ready queue.

        The workload model's side of the origination contract: the
        engine stamps completion event, first-submit time and priority
        timestamp — in this exact order, which the golden parity suite
        pins — then applies mpl admission. For sources that never wait
        on completion (open models), ``done_event`` simply succeeds
        unobserved.
        """
        tx.done_event = self.env.event()
        tx.first_submit_time = self.env.now
        tx.priority_ts = self.next_timestamp()
        self._enqueue_ready(tx)

    def _enqueue_ready(self, tx):
        """Append to the back of the ready queue and admit if possible."""
        tx.state = TxState.READY
        self.ready_queue.append(tx)
        if tx.attempts == 0:
            self.bus.emit(TX_SUBMIT, tx=tx)
        else:
            self.bus.emit(TX_RESUBMIT, tx=tx)
        self._try_admit()

    def _try_admit(self):
        while self.ready_queue and self.active_count < self.mpl_limit:
            self._start_attempt(self.ready_queue.popleft())

    def _start_attempt(self, tx):
        self.active_count += 1
        tx.begin_attempt(self.env.now, self.next_timestamp())
        self._assign_cc_units(tx)
        self.cc.begin(tx)
        self.bus.emit(TX_ADMIT, tx=tx)
        tx.process = self.env.process(self._execute(tx))

    def _leave_active(self, tx):
        self.active_count -= 1
        self._try_admit()

    # -- transaction execution --------------------------------------------------

    def _assign_cc_units(self, tx):
        """Map the read/write sets onto concurrency-control units.

        Object-level CC (the paper's setting) is the identity; with
        ``lock_granules`` set, objects collapse onto granules and the
        algorithms see granule ids everywhere — the Ries-style
        granularity trade-off.
        """
        params = self.params
        if params.lock_granules is None:
            tx.cc_read_set = tx.read_set
            tx.cc_write_set = tx.write_set
            return
        seen = []
        for obj in tx.read_set:
            unit = params.cc_unit_of(obj)
            if unit not in seen:
                seen.append(unit)
        tx.cc_read_set = tuple(seen)
        tx.cc_write_set = frozenset(
            params.cc_unit_of(obj) for obj in tx.write_set
        )

    def _execute(self, tx):
        """One attempt: reads, (think,) writes, commit point, updates."""
        cc = self.cc
        store = self.store
        physical = self.physical
        params = self.params
        cc_unit = params.cc_unit_of
        # Object-level CC (the paper's setting): every object is its own
        # unit, so the hot loops skip the cc_unit_of call.
        identity_units = params.lock_granules is None
        reads_seen = tx.reads_seen
        bus = self.bus
        has_cc_work = physical.has_cc_work
        read_request = cc.read_request
        read_access = physical.read_access
        store_read = store.read
        # Fixed for the attempt: the key only reads attempt state.
        version_key = cc.reader_version_key(tx)
        try:
            for obj in tx.read_set:
                # One CC request per object on the hottest loop of the
                # simulator, issued in line: the grant fast path builds
                # no sub-generator. After each wait the request is
                # re-issued, so algorithms with re-check semantics
                # (basic TO readers waiting on prewrites) are driven
                # correctly; lock-based ones grant the re-issue at once.
                if has_cc_work:
                    yield from physical.cc_request_work(tx)
                unit = obj if identity_units else cc_unit(obj)
                while True:
                    event = read_request(tx, unit)
                    if event is None:
                        if bus.wants_cc:
                            bus.emit(CC_GRANT, tx=tx, obj=unit, op="read")
                        break
                    tx.state = TxState.BLOCKED
                    yield event
                    tx.state = TxState.RUNNING
                version = store_read(obj, version_key)
                reads_seen[obj] = version.writer_id
                yield from read_access(tx, obj)

            if params.int_think_time > 0.0:
                tx.state = TxState.THINKING
                yield self.env.timeout(
                    self._int_think_rng.exponential(
                        params.int_think_time
                    )
                )
                tx.state = TxState.RUNNING

            write_request = cc.write_request
            for obj in self._write_order(tx):
                # The same inline CC request as the read loop's.
                if has_cc_work:
                    yield from physical.cc_request_work(tx)
                unit = obj if identity_units else cc_unit(obj)
                while True:
                    event = write_request(tx, unit)
                    if event is None:
                        if bus.wants_cc:
                            bus.emit(CC_GRANT, tx=tx, obj=unit, op="write")
                        break
                    tx.state = TxState.BLOCKED
                    yield event
                    tx.state = TxState.RUNNING
                yield from physical.write_request_work(tx, obj)

            # The prepare window: the commit protocol collects votes
            # (2PC round trips) before the algorithm's own commit-point
            # processing; locks stay held until finalize_commit below.
            if self._protocol_active:
                yield from self.commit_protocol.prepare(tx)

            # The commit point: validation (a concurrency-control request).
            if physical.has_cc_work:
                yield from physical.cc_request_work(tx)
            event = cc.pre_commit(tx)
            if event is not None:
                tx.state = TxState.BLOCKED
                yield event
                tx.state = TxState.RUNNING
            tx.serial_key = cc.serial_key(tx) or self.next_timestamp()
            if tx.to_skipped_writes:
                # Thomas-rule skips are expressed in CC units; filter
                # the object-level writes they cover.
                tx.install_write_set = frozenset(
                    obj for obj in tx.write_set
                    if cc_unit(obj) not in tx.to_skipped_writes
                )
            if cc.install_at == INSTALL_AT_PRE_COMMIT:
                self._install_writes(tx)
            tx.state = TxState.COMMITTING
            # The decision stage: distribute the commit outcome to the
            # prepared participants before the deferred updates ship.
            if self._protocol_active:
                yield from self.commit_protocol.decide(tx)

            for obj in tx.install_write_set:
                yield from physical.deferred_update(tx, obj)
            if cc.install_at != INSTALL_AT_PRE_COMMIT:
                self._install_writes(tx)
            cc.finalize_commit(tx)
            self._complete_commit(tx)
        except RestartTransaction as error:
            self._handle_restart(tx, error)
        except Interrupt as interrupt:
            cause = interrupt.cause
            if not isinstance(cause, RestartTransaction):
                raise
            self._handle_restart(tx, cause)

    def _write_order(self, tx):
        """Write objects in read-set order (deterministic replay order)."""
        return [obj for obj in tx.read_set if obj in tx.write_set]

    def _install_writes(self, tx):
        """Atomically install the transaction's writes at its commit point.

        Installing here — rather than at completion — keeps the set of
        committed transactions and the object store consistent under any
        run cutoff: once a transaction's writes are installed it can no
        longer abort, even though its deferred-update I/O may still be
        in flight when the simulation clock stops. The ``commit_point``
        event drives the invariant checker's serial replay and
        commit-point tracing; it is skipped entirely when nobody
        subscribed.
        """
        for obj in tx.install_write_set:
            self.store.install(obj, tx.serial_key, tx.id, self.env.now)
        if self.bus.wants_commit_point:
            self.bus.emit(TX_COMMIT_POINT, tx=tx)

    # -- completion and restarts ----------------------------------------------------

    def _complete_commit(self, tx):
        tx.state = TxState.COMMITTED
        tx.commit_time = self.env.now
        # A committed transaction's zero-delay restart streak is over;
        # without this the tracker grows without bound over a campaign.
        self._same_instant_restarts.pop(tx.id, None)
        self.bus.emit(TX_COMPLETE, tx=tx)
        self.physical.charge_attempt(tx, useful=True)
        self._leave_active(tx)
        tx.done_event.succeed()

    #: Consecutive zero-delay restarts of one transaction at one instant
    #: that we treat as a livelock (a misconfiguration: restart-oriented
    #: conflicts with no delay re-occur forever without advancing time —
    #: the exact pathology the paper's restart delay exists to prevent).
    ZERO_DELAY_RESTART_LIMIT = 1000

    def _handle_restart(self, tx, error):
        if self._protocol_active:
            self.commit_protocol.abort(tx)
        self.cc.abort(tx)
        self.physical.charge_attempt(tx, useful=False)
        self.bus.emit(TX_RESTART, tx=tx, reason=error.reason)
        self._leave_active(tx)
        delay = self._sample_restart_delay()
        if delay > 0.0:
            tx.state = TxState.RESTART_DELAY
            self.env.process(self._delayed_resubmit(tx, delay))
        else:
            self._check_restart_livelock(tx)
            self._enqueue_ready(tx)

    def _check_restart_livelock(self, tx):
        if tx.attempt_start_time == self.env.now:
            self._same_instant_restarts[tx.id] = (
                self._same_instant_restarts.get(tx.id, 0) + 1
            )
            if (self._same_instant_restarts[tx.id]
                    >= self.ZERO_DELAY_RESTART_LIMIT):
                raise RestartLivelockError(
                    tx.id,
                    self._same_instant_restarts[tx.id],
                    self.env.now,
                )
        else:
            self._same_instant_restarts.pop(tx.id, None)

    def _delayed_resubmit(self, tx, delay):
        # A real (positive) delay breaks any same-instant restart
        # streak, so the tracker entry must not outlive it.
        self._same_instant_restarts.pop(tx.id, None)
        yield self.env.timeout(delay)
        self._enqueue_ready(tx)

    def _sample_restart_delay(self):
        """Restart delay per the configured mode and algorithm policy.

        The adaptive policy is the paper's: exponential with mean equal
        to the running-average response time, "so that the conflicting
        transaction can complete before the restarted transaction is
        placed back into the ready queue".
        """
        mode = self.params.restart_delay_mode
        if mode == DELAY_MODE_DEFAULT:
            policy = self.cc.default_restart_delay
        elif mode == DELAY_MODE_ADAPTIVE_ALL:
            policy = DELAY_ADAPTIVE
        elif mode == DELAY_MODE_NONE_ALL:
            policy = DELAY_NONE
        else:
            assert mode == DELAY_MODE_FIXED_ALL, mode
            return self._restart_delay_rng.exponential(
                self.params.restart_delay
            )
        if policy == DELAY_NONE:
            return 0.0
        return self._restart_delay_rng.exponential(
            self.metrics.avg_response.value
        )

    # -- run control ------------------------------------------------------------

    def run_until(self, when):
        """Advance the simulation clock to ``when``."""
        self.env.run(until=when)

    def __repr__(self):
        return (
            f"<SystemModel cc={self.cc.name} mpl={self.params.mpl} "
            f"t={self.env.now:.3f}>"
        )

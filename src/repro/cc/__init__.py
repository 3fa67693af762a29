"""Concurrency-control algorithms and their supporting machinery.

The paper's three strategies — :class:`BlockingCC` (dynamic 2PL),
:class:`ImmediateRestartCC`, and :class:`OptimisticCC` — represent the
extremes of when conflicts are detected (as they occur vs. at commit)
and how they are resolved (blocking vs. restarts). Extensions (basic and
multiversion timestamp ordering, wound-wait, wait-die) plug into the same
:class:`ConcurrencyControl` interface.
"""

from repro.cc.base import (
    DELAY_ADAPTIVE,
    DELAY_NONE,
    INSTALL_AT_FINALIZE,
    INSTALL_AT_PRE_COMMIT,
    CommitProtocol,
    ConcurrencyControl,
    EngineHooks,
    SingleSiteCommit,
    cc_units_read,
    cc_units_written,
)
from repro.cc.blocking import BlockingCC
from repro.cc.errors import (
    REASON_ACCESS_FAULT,
    REASON_DEADLOCK,
    REASON_LOCK_CONFLICT,
    REASON_TIMESTAMP,
    REASON_VALIDATION,
    REASON_WOUND,
    ConcurrencyControlError,
    RestartTransaction,
)
from repro.cc.immediate_restart import ImmediateRestartCC
from repro.cc.locks import AcquireResult, LockManager, LockMode, compatible
from repro.cc.multiversion import MultiversionTimestampOrderingCC
from repro.cc.noop import NoOpCC
from repro.cc.optimistic import OptimisticCC
from repro.cc.registry import (
    PAPER_ALGORITHMS,
    algorithm_names,
    commit_protocol_names,
    create_algorithm,
    create_commit_protocol,
    register_algorithm,
    register_commit_protocol,
)
from repro.cc.static_locking import StaticLockingCC
from repro.cc.timestamp import MIN_TS, BasicTimestampOrderingCC
from repro.cc.two_phase_commit import TwoPhaseCommit
from repro.cc.wait_die import WaitDieCC
from repro.cc.waits_for import (
    build_waits_for,
    find_any_cycle,
    find_cycle_containing,
    find_deadlock,
    youngest,
)
from repro.cc.wound_wait import WoundWaitCC

__all__ = [
    "ConcurrencyControl",
    "EngineHooks",
    "BlockingCC",
    "ImmediateRestartCC",
    "OptimisticCC",
    "BasicTimestampOrderingCC",
    "MultiversionTimestampOrderingCC",
    "WoundWaitCC",
    "WaitDieCC",
    "StaticLockingCC",
    "NoOpCC",
    "LockManager",
    "LockMode",
    "AcquireResult",
    "compatible",
    "RestartTransaction",
    "ConcurrencyControlError",
    "REASON_DEADLOCK",
    "REASON_LOCK_CONFLICT",
    "REASON_VALIDATION",
    "REASON_TIMESTAMP",
    "REASON_WOUND",
    "REASON_ACCESS_FAULT",
    "DELAY_NONE",
    "DELAY_ADAPTIVE",
    "INSTALL_AT_PRE_COMMIT",
    "INSTALL_AT_FINALIZE",
    "MIN_TS",
    "CommitProtocol",
    "SingleSiteCommit",
    "TwoPhaseCommit",
    "PAPER_ALGORITHMS",
    "algorithm_names",
    "create_algorithm",
    "register_algorithm",
    "commit_protocol_names",
    "create_commit_protocol",
    "register_commit_protocol",
    "build_waits_for",
    "find_cycle_containing",
    "find_any_cycle",
    "find_deadlock",
    "youngest",
    "cc_units_read",
    "cc_units_written",
]

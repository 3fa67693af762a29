"""The paper's complete database-system model.

``SimulationParameters`` (Table 1), the closed queuing model
(:class:`SystemModel`), the physical resource model, the workload
generator, and the batch-means simulation driver
(:func:`run_simulation`).
"""

from repro.core.engine import SystemModel
from repro.core.errors import RestartLivelockError
from repro.core.metrics import MetricsCollector, RunningAverage
from repro.core.params import (
    DELAY_MODE_ADAPTIVE_ALL,
    DELAY_MODE_DEFAULT,
    DELAY_MODE_FIXED_ALL,
    DELAY_MODE_NONE_ALL,
    PAPER_MPLS,
    RunConfig,
    SimulationParameters,
    TransactionClass,
)
from repro.core.simulation import (
    SimulationResult,
    run_simulation,
    run_until_precision,
)
from repro.core.store import ObjectStore, Version
from repro.core.transaction import Transaction, TxState
from repro.core.workload import WorkloadGenerator

__all__ = [
    "SimulationParameters",
    "TransactionClass",
    "RunConfig",
    "PAPER_MPLS",
    "DELAY_MODE_DEFAULT",
    "DELAY_MODE_ADAPTIVE_ALL",
    "DELAY_MODE_NONE_ALL",
    "DELAY_MODE_FIXED_ALL",
    "SystemModel",
    "RestartLivelockError",
    "run_simulation",
    "run_until_precision",
    "SimulationResult",
    "Transaction",
    "TxState",
    "WorkloadGenerator",
    "MetricsCollector",
    "RunningAverage",
    "ObjectStore",
    "Version",
]

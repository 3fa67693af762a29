"""Pluggable workload models: where transactions come from.

The paper's closed terminal pool (``closed_classic``), open Poisson and
MMPP arrivals (``open_poisson``), heavy-tailed think/service demands
(``heavy_tailed``) and deterministic trace playback with feedback
routing (``trace``) — behind one registry, mirroring the resource-model
tier in :mod:`repro.resources`. The engine constructs whichever model
``SimulationParameters.workload_model`` names; everything below the
origination layer is untouched by a model swap.
"""

from repro.workloads.base import WorkloadModel
from repro.workloads.closed import ClosedClassicWorkload
from repro.workloads.heavy_tailed import HeavyTailedWorkload
from repro.workloads.open_poisson import OpenPoissonWorkload
from repro.workloads.registry import (
    create_workload_model,
    register_workload_model,
    workload_model_names,
)
from repro.workloads.trace import (
    TraceSource,
    TraceWorkloadModel,
    load_workload_trace,
    save_workload_trace,
    trace_from_history,
    trace_record,
)

__all__ = [
    "ClosedClassicWorkload",
    "HeavyTailedWorkload",
    "OpenPoissonWorkload",
    "TraceSource",
    "TraceWorkloadModel",
    "WorkloadModel",
    "create_workload_model",
    "load_workload_trace",
    "register_workload_model",
    "save_workload_trace",
    "trace_from_history",
    "trace_record",
    "workload_model_names",
]

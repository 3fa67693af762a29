"""Name → workload-model registry (mirrors ``repro.resources.registry``).

``SimulationParameters.workload_model`` is resolved here at model
construction: registration is how the engine and CLI discover models,
and third-party code can plug in new sources with
:func:`register_workload_model` without touching core modules.
"""

from repro.workloads.closed import ClosedClassicWorkload
from repro.workloads.heavy_tailed import HeavyTailedWorkload
from repro.workloads.open_poisson import OpenPoissonWorkload
from repro.workloads.trace import TraceWorkloadModel

__all__ = [
    "create_workload_model",
    "register_workload_model",
    "workload_model_names",
]

_MODELS = {
    cls.name: cls
    for cls in (
        ClosedClassicWorkload,
        OpenPoissonWorkload,
        HeavyTailedWorkload,
        TraceWorkloadModel,
    )
}


def workload_model_names():
    """Registered workload-model names, sorted."""
    return sorted(_MODELS)


def create_workload_model(params):
    """Instantiate the workload model ``params`` selects.

    Raises ``ValueError`` for unknown names, listing the registered
    choices (the CLI catches typos earlier, with a did-you-mean).
    """
    name = params.workload_model
    cls = _MODELS.get(name)
    if cls is None:
        choices = ", ".join(workload_model_names())
        raise ValueError(
            f"unknown workload model {name!r}; choose from: {choices}"
        )
    return cls(params)


def register_workload_model(cls):
    """Register a workload-model class under ``cls.name`` (decorator-friendly)."""
    name = getattr(cls, "name", "")
    if not name or not isinstance(name, str):
        raise ValueError(
            f"workload model {cls!r} must define a non-empty name"
        )
    _MODELS[name] = cls
    return cls

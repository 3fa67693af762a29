"""The resource-model registry: name → model class.

Mirrors :mod:`repro.cc.registry` for the physical tier: the engine
constructs whichever model ``SimulationParameters.resource_model``
names, so new resource scenarios plug in without forking the engine.
"""

from repro.resources.base import ResourceModel
from repro.resources.buffered import BufferedResourceModel
from repro.resources.classic import ClassicResourceModel
from repro.resources.distributed import DistributedResourceModel
from repro.resources.skewed import SkewedDisksResourceModel

_MODELS = {
    cls.name: cls
    for cls in (
        ClassicResourceModel,
        BufferedResourceModel,
        SkewedDisksResourceModel,
        DistributedResourceModel,
    )
}


def resource_model_names():
    """Sorted names of every registered resource model."""
    return sorted(_MODELS)


def create_resource_model(name, env, params, streams, bus=None):
    """Instantiate the resource model registered under ``name``."""
    try:
        cls = _MODELS[name]
    except KeyError:
        choices = ", ".join(resource_model_names())
        raise ValueError(
            f"unknown resource model {name!r}; choose from: {choices}"
        ) from None
    return cls(env, params, streams, bus=bus)


def register_resource_model(cls):
    """Register a :class:`~repro.resources.base.ResourceModel` subclass.

    The class must carry a unique non-empty ``name``. Returns the class
    so it can be used as a decorator.
    """
    if not getattr(cls, "name", None):
        raise ValueError(
            "resource model classes must define a non-empty 'name'"
        )
    _MODELS[cls.name] = cls
    return cls


__all__ = [
    "ResourceModel",
    "resource_model_names",
    "create_resource_model",
    "register_resource_model",
]

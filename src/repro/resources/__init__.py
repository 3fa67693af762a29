"""repro.resources — the pluggable physical tier.

The resource model is the simulation's physical layer: CPU and disk
service, queueing, utilization accounting, and fault hooks behind one
generator-based service interface (:class:`ResourceModel`). Models
register by name (mirroring :mod:`repro.cc.registry`) and the engine
constructs whichever one ``SimulationParameters.resource_model`` names:

* ``classic`` — the paper's Figure 2 tier: pooled CPUs + uniformly
  partitioned disks (bit-identical to the original hard-coded model);
  ``num_cpus``/``num_disks`` of None make a resource infinite (paper
  Section 4);
* ``buffered`` — a buffer pool in front of the disks (LRU or fixed hit
  ratio): disk service only on a miss;
* ``skewed_disks`` — explicit object→disk placement, so hot-spot
  workloads contend on hot spindles;
* ``distributed`` — objects sharded across N nodes with per-node CPU
  and disk pools, network legs on cross-node accesses, and optional
  replicated reads (DESIGN.md §18).

See DESIGN.md §13 for the interface contract.
"""

from repro.resources.base import CC_PRIORITY, OBJECT_PRIORITY, ResourceModel
from repro.resources.buffered import BufferedResourceModel
from repro.resources.classic import ClassicResourceModel
from repro.resources.distributed import DistributedResourceModel
from repro.resources.registry import (
    create_resource_model,
    register_resource_model,
    resource_model_names,
)
from repro.resources.skewed import SkewedDisksResourceModel

__all__ = [
    "ResourceModel",
    "ClassicResourceModel",
    "BufferedResourceModel",
    "SkewedDisksResourceModel",
    "DistributedResourceModel",
    "create_resource_model",
    "register_resource_model",
    "resource_model_names",
    "CC_PRIORITY",
    "OBJECT_PRIORITY",
]

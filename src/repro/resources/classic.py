"""The ``classic`` resource model: the paper's Figure 2 physical tier.

A pool of identical CPU servers drains one global queue FCFS
(concurrency-control requests have priority), and the database is
uniformly partitioned across the disks: each object access selects a
disk uniformly at random and waits in that disk's FCFS queue.

This is the physical tier once hard-coded as
``repro.core.physical.PhysicalModel`` (a module since removed), now
behind the resource-model interface and bit-identical for fixed seeds
(golden-output verified in ``tests/resources/test_golden_parity.py``).
It keeps the in-band infinite-resources convention for backward
compatibility: ``num_cpus``/``num_disks`` of None makes the
corresponding resource infinite — the ``infinite`` model is the
explicit spelling of that branch.
"""

from repro.resources.base import ResourceModel


class ClassicResourceModel(ResourceModel):
    """CPU pool + uniformly partitioned disks (paper Figure 2)."""

    name = "classic"

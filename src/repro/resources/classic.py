"""The ``classic`` resource model: the paper's Figure 2 physical tier.

A pool of identical CPU servers drains one global queue FCFS
(concurrency-control requests have priority), and the database is
uniformly partitioned across the disks: each object access selects a
disk uniformly at random and waits in that disk's FCFS queue.

This is the physical tier once hard-coded in the since-removed
``repro.core.physical`` module, now behind the resource-model
interface and bit-identical for fixed seeds (golden-output verified in
``tests/resources/test_golden_parity.py``). It keeps the paper's
in-band infinite-resources convention: ``num_cpus``/``num_disks`` of
None makes the corresponding resource infinite.
"""

from repro.resources.base import ResourceModel


class ClassicResourceModel(ResourceModel):
    """CPU pool + uniformly partitioned disks (paper Figure 2)."""

    name = "classic"

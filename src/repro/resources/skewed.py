"""The ``skewed_disks`` resource model: placement-aware disks.

The classic model spreads every access uniformly over the disks, which
quietly assumes perfect striping: even a hot-spot workload (the
``hot_fraction``/``hot_access_prob`` skew of paper Section 6.2) loads
all spindles equally, so data skew never becomes *resource* skew. This
model makes object→disk placement explicit, after Di Sanzo's
data-access-pattern analysis (arXiv:2104.03187): each object lives on
one disk, so a skewed reference pattern piles its accesses onto the hot
object's spindle and disk queueing amplifies the contention the
workload skew creates.

``params.disk_placement`` selects the placement
(:func:`~repro.resources.base.placement_table`): ``contiguous`` id runs
make the low-numbered disks the hot spindles under hotspot skew;
``striped`` round-robin is the control arm that isolates queueing-skew
effects from placement itself.

The model is a configuration of the one resource pipeline
(:mod:`repro.resources.base`): one site, no buffer, and the object→disk
table the pipeline's disk leg reads. Placement is a pure function of
the object id — no RNG draws, so the disk-choice stream is untouched.
Requires finite disks: placement on an infinite server pool is
meaningless.
"""

from repro.resources.base import ResourceModel, placement_table


class SkewedDisksResourceModel(ResourceModel):
    """Deterministic object→disk placement (hot data ⇒ hot spindles)."""

    name = "skewed_disks"

    def __init__(self, env, params, streams, bus=None):
        if params.num_disks is None:
            raise ValueError(
                "resource_model='skewed_disks' requires finite disks "
                "(num_disks is None: placement on infinite servers is "
                "meaningless)"
            )
        super().__init__(env, params, streams, bus=bus)
        self._disk_of = placement_table(params.num_disks, params)

    def describe_resources(self):
        labels = super().describe_resources()
        labels["placement"] = self.params.disk_placement
        return labels

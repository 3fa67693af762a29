"""The fused point executor every sweep runs on.

:mod:`repro.fastlane.backend` simulates each grid point's trajectory
once and carves all of its replications from it, bit-identical per
replication to stand-alone ``run_simulation`` calls;
:mod:`repro.fastlane.tapes` shares precomputed workload tapes across
the points of a sweep.
"""

from repro.fastlane.backend import run_point_replications
from repro.fastlane.tapes import (
    TapeStore,
    TapeWorkload,
    WorkloadTape,
    tape_key,
)

__all__ = [
    "TapeStore",
    "TapeWorkload",
    "WorkloadTape",
    "run_point_replications",
    "tape_key",
]

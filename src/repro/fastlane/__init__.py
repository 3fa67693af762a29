"""The fused point executor every sweep runs on.

:mod:`repro.fastlane.backend` is the name the sweep runner calls the
executor by: it simulates each grid point's trajectory once and carves
all of its replications from it, bit-identical per replication to
stand-alone ``run_simulation`` calls (its one-replication case);
:mod:`repro.fastlane.tapes` records the seed-only draw sequences
(transaction content, think times, disk picks) once per sweep and
shares them across its points.
"""

from repro.fastlane.backend import run_point_replications
from repro.fastlane.tapes import TapeStore, WorkloadTape, tape_key

__all__ = [
    "TapeStore",
    "WorkloadTape",
    "run_point_replications",
    "tape_key",
]

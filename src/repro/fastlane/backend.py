"""The fused point executor, under the name every sweep calls it by.

A replication is a *segment* of one deterministic trajectory
(replication ``r`` runs with ``warmup_batches = w + r*B``), so a grid
point's ``R`` replications are carved from one simulated trajectory of
``w + R*B`` batches instead of ``R`` trajectories that each re-simulate
the prefix. The executor,
:func:`~repro.core.simulation.run_point_replications`, lives beside
the batch loop and result assembly it shares with ``run_simulation``
(its one-replication case) and ``run_until_precision``; this module is
the name the sweep runner calls it through, once per attempt of every
grid point, so a wrapper installed here (benchmark tracing, tests)
sees every sweep point. The parity suite (``tests/fastlane/``) pins
every carved replication against the golden sha256 fingerprints and
against its stand-alone run.
"""

from repro.core.simulation import run_point_replications

__all__ = ["run_point_replications"]

"""Closed-form models of the simulated queueing network.

The paper sits in a literature split between *simulation* studies and
*analytical* studies of concurrency control; this package is the
analytical side, built on one queueing network so every model
describes the network the simulator runs:

* :mod:`repro.analytic.mva` — exact Mean-Value Analysis
  (Reiser–Lavenberg) of single-class closed queueing networks with
  delay, single-server, and multi-server (load-dependent) centers,
  identical centers solved once as a counted group;
* :mod:`repro.analytic.bridge` — :func:`network_for_params`, the one
  mapping from a :class:`~repro.core.SimulationParameters`
  configuration to centers and demands, and the contention-free
  throughput/response predictions that the ``noop`` baseline must
  track;
* :mod:`repro.analytic.contention` — the contention-corrected
  surrogate (approximate MVA over the same network plus fitted
  data-contention terms), with :mod:`repro.analytic.calibrate` fitting
  it against simulation and :mod:`repro.analytic.explore` sweeping it
  over parameter spaces too large to simulate.

Data contention (the algorithms' blocking and restarts) only *lowers*
throughput below the contention-free predictions, so MVA is also a
per-point upper bound on every algorithm. This package never imports
:mod:`repro.analysis`, the tools that act on simulated runs.
"""

from repro.analytic.mva import (
    Center,
    DELAY,
    MULTI_SERVER,
    MvaResult,
    QUEUEING,
    solve_closed_network,
)
from repro.analytic.bridge import (
    mva_prediction,
    network_for_params,
    predicted_curve,
)

__all__ = [
    "Center",
    "DELAY",
    "QUEUEING",
    "MULTI_SERVER",
    "MvaResult",
    "solve_closed_network",
    "network_for_params",
    "mva_prediction",
    "predicted_curve",
]

"""Tools that act on simulated runs.

* :mod:`repro.analysis.bounds` — operational-law bounds over the
  network of :func:`repro.analytic.network_for_params`, used as an
  oracle that every simulated result must respect.
* :mod:`repro.analysis.adaptive` — an adaptive multiprogramming-level
  controller that retunes a running model, the "open problem"
  sketched in the paper's conclusions.

The closed-form models themselves live in :mod:`repro.analytic`.
"""

from repro.analysis.adaptive import AdaptiveMplController, AdaptiveMplResult
from repro.analysis.bounds import (
    OperationalBounds,
    check_result_against_bounds,
    operational_bounds,
)

__all__ = [
    "AdaptiveMplController",
    "AdaptiveMplResult",
    "operational_bounds",
    "OperationalBounds",
    "check_result_against_bounds",
]

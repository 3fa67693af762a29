"""Saturation/stability detection for open-system runs.

A closed model cannot saturate: its population is fixed, so offered
load self-throttles. An open model can — when the arrival rate exceeds
the system's service capacity (lambda >= mu), the backlog grows without
bound and every time-windowed statistic silently diverges. This module
turns that divergence into an explicit verdict: the run *is* saturated,
its steady-state metrics do not exist, and reports should say so
instead of printing a throughput number that is really just the
service capacity.

The detector is pure arithmetic over cumulative state, so a
stand-alone run and the sweep's fused point executor can evaluate it
at any batch boundary with no extra instrumentation.
"""

from dataclasses import dataclass

__all__ = ["StabilityReport", "assess_stability"]

#: Minimum absolute backlog before a run can be called saturated —
#: small transients at start-up are not divergence.
BACKLOG_FLOOR = 50

#: A run whose completions keep up with at least this fraction of its
#: arrivals is draining; below it (with a large backlog) it is not.
DRAIN_THRESHOLD = 0.95


@dataclass(frozen=True)
class StabilityReport:
    """The stability verdict for one (window of an) open-system run."""

    #: First submissions observed (arrivals; resubmits excluded).
    submitted: int
    #: Commits observed.
    completed: int
    #: Wall of simulated time covered.
    elapsed: float
    #: Observed arrival rate (lambda-hat, per second).
    arrival_rate: float
    #: Observed completion rate (per second; the throughput, which
    #: under saturation measures capacity mu rather than demand).
    completion_rate: float
    #: Transactions in the system (ready + active + delayed).
    in_system: int
    #: completed / submitted — the fraction of offered work drained.
    drain_ratio: float
    #: True when the backlog indicates lambda >= mu.
    saturated: bool

    def as_dict(self):
        """JSON-friendly dict (checkpoint/report serialization)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "elapsed": self.elapsed,
            "arrival_rate": self.arrival_rate,
            "completion_rate": self.completion_rate,
            "in_system": self.in_system,
            "drain_ratio": self.drain_ratio,
            "saturated": self.saturated,
        }

    def describe(self):
        verdict = "SATURATED" if self.saturated else "stable"
        return (
            f"{verdict}: lambda={self.arrival_rate:.2f}/s "
            f"mu-hat={self.completion_rate:.2f}/s "
            f"in-system={self.in_system}"
        )


def assess_stability(submitted, completed, elapsed, mpl,
                     backlog_floor=BACKLOG_FLOOR,
                     drain_threshold=DRAIN_THRESHOLD):
    """Assess one open-system run from its cumulative counters.

    The verdict is saturated when the in-system population exceeds
    both ``backlog_floor`` and twice the multiprogramming limit (so a
    full-but-draining admission queue is not flagged) *and* completions
    drained less than ``drain_threshold`` of arrivals. An empty or
    zero-length window is trivially stable.
    """
    if elapsed < 0:
        raise ValueError(f"elapsed must be >= 0, got {elapsed}")
    in_system = submitted - completed
    if in_system < 0:
        raise ValueError(
            f"completed ({completed}) exceeds submitted ({submitted})"
        )
    arrival_rate = submitted / elapsed if elapsed > 0 else 0.0
    completion_rate = completed / elapsed if elapsed > 0 else 0.0
    drain_ratio = completed / submitted if submitted else 1.0
    saturated = (
        in_system > max(backlog_floor, 2 * mpl)
        and drain_ratio < drain_threshold
    )
    return StabilityReport(
        submitted=submitted,
        completed=completed,
        elapsed=elapsed,
        arrival_rate=arrival_rate,
        completion_rate=completion_rate,
        in_system=in_system,
        drain_ratio=drain_ratio,
        saturated=saturated,
    )

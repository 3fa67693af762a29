"""Adaptive multiprogramming-level control.

The paper's conclusions: "the level of multiprogramming in database
systems should be carefully controlled ... adaptive algorithms that
dynamically adjust the multiprogramming level in order to maximize
system throughput need to be designed. Some performance indicators that
might be used ... are useful resource utilization, running averages of
throughput or response time". The design of such an algorithm is left
as an open problem; this module implements one straightforward instance.

:class:`AdaptiveMplController` hill-climbs the engine's admission limit
(``SystemModel.mpl_limit``) between measurement epochs: it perturbs the
limit by a step, keeps the direction while the epoch's throughput
improves, and reverses (halving the step) when it degrades. An optional
useful-utilization guard refuses increases once wasted resources exceed
a threshold fraction of total utilization.
"""

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.engine import SystemModel


@dataclass
class AdaptiveMplResult:
    """Trace and outcome of one adaptive-control run."""

    #: (epoch_index, mpl_in_effect, measured_throughput) per epoch.
    trace: List[Tuple[int, int, float]] = field(default_factory=list)
    final_mpl: int = 0
    best_mpl: int = 0
    best_throughput: float = 0.0

    @property
    def epochs(self):
        return len(self.trace)


class AdaptiveMplController:
    """Hill-climbing controller over the engine's admission limit.

    The limit stays within ``[min_mpl, max_mpl]``; ``max_mpl`` of None
    means the terminal count.
    """

    def __init__(self, model, min_mpl=1, max_mpl=None, initial_step=5,
                 waste_guard=0.5, noise_tolerance=0.05):
        if not isinstance(model, SystemModel):
            raise TypeError("model must be a SystemModel")
        if max_mpl is None:
            max_mpl = model.params.num_terms
        if not 1 <= min_mpl <= max_mpl:
            raise ValueError(
                f"need 1 <= min_mpl <= max_mpl, got min_mpl={min_mpl}, "
                f"max_mpl={max_mpl}"
            )
        if initial_step < 1:
            raise ValueError(
                f"initial_step must be >= 1, got {initial_step}"
            )
        self.model = model
        self.min_mpl = min_mpl
        self.max_mpl = max_mpl
        self.step = initial_step
        self.direction = +1
        self.waste_guard = waste_guard
        #: Relative throughput drop below which an epoch-to-epoch change
        #: is treated as measurement noise rather than degradation.
        self.noise_tolerance = noise_tolerance
        self._last_throughput = None

    def run(self, epochs, epoch_time, warmup_time=0.0):
        """Run the model for ``epochs`` control epochs of ``epoch_time``.

        The controller observes each epoch's throughput and adjusts
        ``mpl_limit`` between epochs. Returns an
        :class:`AdaptiveMplResult` with the full trace.
        """
        model = self.model
        if warmup_time > 0.0:
            model.run_until(model.env.now + warmup_time)
        result = AdaptiveMplResult()
        for epoch in range(epochs):
            snapshot = model.metrics.snapshot()
            mpl_in_effect = model.mpl_limit
            model.run_until(model.env.now + epoch_time)
            values = model.metrics.batch_values(snapshot)
            throughput = values["throughput"]
            result.trace.append((epoch, mpl_in_effect, throughput))
            if throughput > result.best_throughput:
                result.best_throughput = throughput
                result.best_mpl = mpl_in_effect
            self._adjust(throughput, values)
        result.final_mpl = model.mpl_limit
        return result

    def _adjust(self, throughput, values):
        if self._last_throughput is not None:
            threshold = self._last_throughput * (1 - self.noise_tolerance)
            if throughput < threshold:
                # Clearly worse than last epoch: reverse, smaller steps.
                self.direction = -self.direction
                self.step = max(1, self.step // 2)
        if self.direction > 0 and self._wasteful(values):
            # Useful utilization is collapsing: do not push mpl higher.
            self.direction = -1
        self._last_throughput = throughput
        new_mpl = self.model.mpl_limit + self.direction * self.step
        self.model.mpl_limit = max(self.min_mpl, min(self.max_mpl, new_mpl))

    def _wasteful(self, values):
        total = values["disk_util"]
        useful = values["disk_util_useful"]
        if total <= 0.0:
            return False
        return (total - useful) / total > self.waste_guard

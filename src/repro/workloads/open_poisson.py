"""Open arrival sources (``workload_model="open_poisson"``).

Replaces the terminal population with an externally timed arrival
stream. Nobody waits on completion, so the ready queue grows without
bound when the offered load exceeds the system's capacity — exactly the
behavior an open model exposes and a closed model hides. The
open-system metrics (``totals["open_system"]``) and the stability
detector (:mod:`repro.stats.stability`) report that saturation instead
of letting a diverging run masquerade as a slow one.

Two arrival processes, selected by ``workload_spec``:

* ``process="poisson"`` (default) — Poisson arrivals at
  ``rate`` transactions/second (default: ``params.arrival_rate``),
  drawn from the ``open_arrivals`` stream.
* ``process="mmpp"`` — a Markov-modulated Poisson process:
  ``rates=(r0, r1, ...)`` gives the per-phase arrival rates and
  ``sojourns=(s0, s1, ...)`` the mean (exponential) phase dwell times;
  phases rotate cyclically (two phases = the classic interrupted /
  bursty Poisson source). Phase sojourns draw from a dedicated
  ``open_mmpp_phase`` stream so the arrival stream's draws stay
  comparable across processes.
"""

from repro.workloads.base import WorkloadModel

__all__ = ["OpenPoissonWorkload"]


class OpenPoissonWorkload(WorkloadModel):
    """Poisson or MMPP open arrivals with mpl-capped admission."""

    name = "open_poisson"
    open_system = True

    _KNOWN_OPTIONS = ("process", "rate", "rates", "sojourns")

    def __init__(self, params):
        super().__init__(params)
        self._unknown_options(self._KNOWN_OPTIONS)
        self.process_kind = self.options.get("process", "poisson")
        if self.process_kind not in ("poisson", "mmpp"):
            raise ValueError(
                f"open_poisson process must be 'poisson' or 'mmpp', "
                f"got {self.process_kind!r}"
            )
        if self.process_kind == "poisson":
            self.rate = float(self.options.get("rate", params.arrival_rate))
            if self.rate <= 0:
                raise ValueError(
                    f"open_poisson rate must be > 0, got {self.rate}"
                )
            self.rates = None
            self.sojourns = None
        else:
            rates = self._require_option("rates")
            sojourns = self._require_option("sojourns")
            self.rates = tuple(float(r) for r in rates)
            self.sojourns = tuple(float(s) for s in sojourns)
            if len(self.rates) < 2:
                raise ValueError("mmpp needs at least two phase rates")
            if len(self.rates) != len(self.sojourns):
                raise ValueError(
                    f"mmpp rates ({len(self.rates)}) and sojourns "
                    f"({len(self.sojourns)}) must pair up"
                )
            if any(r < 0 for r in self.rates) or all(
                r == 0 for r in self.rates
            ):
                raise ValueError(
                    "mmpp phase rates must be >= 0 with at least one > 0"
                )
            if any(s <= 0 for s in self.sojourns):
                raise ValueError("mmpp sojourns must be > 0")
            self.rate = None

    def mean_rate(self):
        """Time-averaged arrival rate (sojourn-weighted for MMPP)."""
        if self.process_kind == "poisson":
            return self.rate
        weight = sum(self.sojourns)
        return sum(
            r * s for r, s in zip(self.rates, self.sojourns)
        ) / weight

    def summary(self, model):
        return {
            "process": self.process_kind,
            "offered_rate": self.mean_rate(),
        }

    def start(self, model):
        if self.process_kind == "poisson":
            model.env.process(self._poisson_source(model))
        else:
            model.env.process(self._mmpp_source(model))

    def _poisson_source(self, model):
        """Poisson arrivals; draw-identical to the legacy open source."""
        rng = model.streams.stream("open_arrivals")
        mean_interarrival = 1.0 / self.rate
        while True:
            yield model.env.timeout(rng.exponential(mean_interarrival))
            model.submit(model.workload.new_transaction(terminal_id=0))

    def _mmpp_source(self, model):
        """Cyclic-phase MMPP arrivals via competing exponentials.

        In each phase, the next-arrival candidate competes with the
        phase's end; a candidate past the boundary is discarded and
        redrawn in the new phase (memorylessness makes the redraw
        distributionally exact). A zero-rate phase emits nothing and
        just dwells.
        """
        env = model.env
        rng = model.streams.stream("open_arrivals")
        phase_rng = model.streams.stream("open_mmpp_phase")
        phase = 0
        phase_end = env.now + phase_rng.exponential(self.sojourns[0])
        while True:
            rate = self.rates[phase]
            arrival = (
                env.now + rng.exponential(1.0 / rate) if rate > 0
                else float("inf")
            )
            if arrival >= phase_end:
                yield env.timeout(phase_end - env.now)
                phase = (phase + 1) % len(self.rates)
                phase_end = env.now + phase_rng.exponential(
                    self.sojourns[phase]
                )
                continue
            yield env.timeout(arrival - env.now)
            model.submit(model.workload.new_transaction(terminal_id=0))

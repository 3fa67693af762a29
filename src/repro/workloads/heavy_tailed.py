"""Heavy-tailed think and service demands (``workload_model="heavy_tailed"``).

A closed terminal pool like ``closed_classic``, but with the two
exponential/uniform assumptions the paper inherits from its queueing
ancestry replaced by heavy-tailed distributions:

* **Think times** draw from a lognormal (parameterized by mean =
  ``ext_think_time`` and a coefficient of variation) or a Pareto
  (shape ``think_alpha``, same mean) instead of the exponential.
* **Service demand** is realized through the read-set size: every read
  object costs ``obj_io + obj_cpu``, so a heavy-tailed size
  distribution *is* a heavy-tailed service-time distribution. Sizes
  draw from a lognormal or Pareto with mean ``(min_size+max_size)/2``
  (per class, under a workload mix), rounded and clamped to
  ``[1, size_cap]`` (default: the database size).

Fitted presets package parameter sets from the empirical literature on
OLTP/web workloads (lognormal think times with CV 2–4, Pareto service
demands with shape 1.2–1.6 — the self-similarity range where variance
is unbounded):

* ``web_sessions`` — bursty human think (lognormal, CV 3) over
  Pareto service demands (shape 1.5);
* ``oltp_tail``    — mild think burstiness (lognormal, CV 1.5) with a
  lognormal service tail (CV 2), the "mostly small transactions, rare
  huge ones" shape of payment workloads.

Any preset field can be overridden by an explicit spec key.

Seeding note: the terminals run ``closed_classic``'s one loop
(:class:`~repro.workloads.closed.ClosedPopulationWorkload`) and the
paper's content generator; only :meth:`HeavyTailedWorkload.draw_think`
and :meth:`HeavyTailedWorkload.draw_size` differ. Each terminal's
thinks, the initial stagger first, are the draws of its
``terminal.<id>`` stream, and the sizes are the draws of the
``workload.size`` stream, each read as a draw sequence — recorded once
per sweep on the workload tape, like the paper's.
"""

from repro.workloads.closed import ClosedPopulationWorkload

__all__ = ["HeavyTailedWorkload"]

_DISTRIBUTIONS = ("lognormal", "pareto")

#: Fitted parameter presets (selected via ``workload_spec["preset"]``).
PRESETS = {
    "web_sessions": {
        "think_dist": "lognormal", "think_cv": 3.0,
        "size_dist": "pareto", "size_alpha": 1.5,
    },
    "oltp_tail": {
        "think_dist": "lognormal", "think_cv": 1.5,
        "size_dist": "lognormal", "size_cv": 2.0,
    },
}

_DEFAULTS = {
    "think_dist": "lognormal", "think_cv": 2.0, "think_alpha": 1.5,
    "size_dist": "lognormal", "size_cv": 2.0, "size_alpha": 1.5,
    "size_cap": None,
}


class HeavyTailedWorkload(ClosedPopulationWorkload):
    """Closed terminal pool with lognormal/Pareto think and service."""

    name = "heavy_tailed"

    _KNOWN_OPTIONS = (
        "preset", "think_dist", "think_cv", "think_alpha",
        "size_dist", "size_cv", "size_alpha", "size_cap",
    )

    def __init__(self, params):
        super().__init__(params)
        self._unknown_options(self._KNOWN_OPTIONS)
        settings = dict(_DEFAULTS)
        preset = self.options.get("preset")
        if preset is not None:
            if preset not in PRESETS:
                raise ValueError(
                    f"unknown heavy_tailed preset {preset!r}; choose "
                    f"from: {', '.join(sorted(PRESETS))}"
                )
            settings.update(PRESETS[preset])
        settings.update(
            (k, v) for k, v in self.options.items() if k != "preset"
        )
        self.think_dist = settings["think_dist"]
        self.size_dist = settings["size_dist"]
        for which, dist in (("think_dist", self.think_dist),
                            ("size_dist", self.size_dist)):
            if dist not in _DISTRIBUTIONS:
                raise ValueError(
                    f"{which} must be one of {_DISTRIBUTIONS}, got {dist!r}"
                )
        self.think_cv = float(settings["think_cv"])
        self.think_alpha = float(settings["think_alpha"])
        self.size_cv = float(settings["size_cv"])
        self.size_alpha = float(settings["size_alpha"])
        if self.think_cv < 0 or self.size_cv < 0:
            raise ValueError("coefficients of variation must be >= 0")
        for which, alpha in (("think_alpha", self.think_alpha),
                             ("size_alpha", self.size_alpha)):
            if alpha <= 1.0:
                raise ValueError(
                    f"{which} must be > 1 (finite mean), got {alpha}"
                )
        cap = settings["size_cap"]
        self.size_cap = params.db_size if cap is None else int(cap)
        if not 1 <= self.size_cap <= params.db_size:
            raise ValueError(
                f"size_cap must be in [1, db_size], got {self.size_cap}"
            )

    def draw_think(self, rng, mean):
        """One think-time sample from the configured tail."""
        if mean == 0:
            return 0.0
        if self.think_dist == "lognormal":
            return rng.lognormal(mean, self.think_cv)
        return rng.pareto(self.think_alpha, mean)

    def draw_size(self, rng, min_size, max_size):
        """One read-set size from the configured tail.

        The continuous draw, with mean ``(min_size + max_size) / 2``,
        is rounded to the nearest integer and clamped to ``[1,
        size_cap]`` (an untruncated Pareto would occasionally ask for
        more objects than the database holds). The object and
        write-flag draws are the paper's, so hotspot skew and workload
        mixes compose unchanged.
        """
        mean = (min_size + max_size) / 2.0
        if self.size_dist == "lognormal":
            value = rng.lognormal(mean, self.size_cv)
        else:
            value = rng.pareto(self.size_alpha, mean)
        return max(1, min(int(round(value)), self.size_cap))

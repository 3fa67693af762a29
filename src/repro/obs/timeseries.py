"""Periodic time-series sampling of queue populations and utilization.

The paper's closed model (Figures 1-2) is characterized operationally
by its queue populations — terminals, ready queue, active set — and by
resource busyness. Batch means report their *averages*; the
:class:`TimeSeriesSampler` records their *trajectories*, which is what
you want when a point misbehaves (is the ready queue growing? did a
disk crash empty the active set?).

The sampler is a bus subscriber with its own simulation process: it
consumes no events (it reads the instruments directly at each tick)
and *emits* one ``sample`` event per tick — dispatched only when a
downstream subscriber, e.g. a :class:`~repro.obs.jsonl.JsonlSink`,
wants the rows. Sampling draws no random numbers and mutates nothing, so it
never perturbs a run's results.
"""

from repro.obs.events import SAMPLE

#: Column order of one sample row (also the CSV column order used by
#: :func:`repro.experiments.export.timeseries_to_rows`).
SAMPLE_FIELDS = (
    "time",
    "active",
    "ready_queue",
    "cpu_busy",
    "disk_busy",
    "commits",
    "restarts",
    "blocks",
)


class TimeSeriesSampler:
    """Samples model instruments every ``interval`` simulated seconds.

    ``active``/``ready_queue`` are instantaneous populations,
    ``cpu_busy``/``disk_busy`` are busy-server counts, and
    ``commits``/``restarts``/``blocks`` are cumulative totals (diff
    adjacent rows for per-interval rates). Rows accumulate in columnar
    form; :meth:`series` returns them as ``{field: [values]}``, which
    is the JSON layout persisted in sweep diagnostics.
    """

    def __init__(self, interval=1.0):
        if interval <= 0.0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.interval = interval
        self._series = {field: [] for field in SAMPLE_FIELDS}
        self._bus = None
        self._model = None

    # -- subscriber protocol -------------------------------------------------

    def handlers(self):
        return {}

    def on_attach(self, bus, model):
        if model is None:
            raise ValueError(
                "TimeSeriesSampler needs the owning SystemModel; attach "
                "it via SystemModel(..., subscribers=...) or "
                "bus.attach(sampler, model=model)"
            )
        self._bus = bus
        self._model = model
        model.env.process(self._run())

    # -- sampling ------------------------------------------------------------

    def _run(self):
        env = self._model.env
        while True:
            self._take_sample(env.now)
            yield env.timeout(self.interval)

    def _take_sample(self, now):
        metrics = self._model.metrics
        physical = self._model.physical
        row = {
            "time": now,
            "active": metrics.active_level.value,
            "ready_queue": metrics.ready_queue_level.value,
            "cpu_busy": physical.cpu_tracker.busy_now,
            "disk_busy": physical.disk_tracker.busy_now,
            "commits": metrics.commits.total,
            "restarts": metrics.restarts.total,
            "blocks": metrics.blocks.total,
        }
        series = self._series
        for field, value in row.items():
            series[field].append(value)
        if self._bus.wants(SAMPLE):
            self._bus.emit(SAMPLE, **row)

    # -- results -------------------------------------------------------------

    def __len__(self):
        return len(self._series["time"])

    def series(self):
        """Columnar copy of everything sampled so far."""
        return {field: list(values) for field, values in self._series.items()}

    def rows(self):
        """The samples as a list of per-tick dicts."""
        series = self._series
        return [
            {field: series[field][i] for field in SAMPLE_FIELDS}
            for i in range(len(self))
        ]

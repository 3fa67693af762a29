"""Measurement instruments bound to a simulation environment.

Thin adapters over :mod:`repro.stats` that read the clock from an
:class:`~repro.des.environment.Environment`, so model code records
observations without passing ``now`` around.
"""

from repro.stats.timeweighted import TimeWeighted


class Counter:
    """A monotonically increasing event counter with snapshot/delta."""

    __slots__ = ("name", "total")

    def __init__(self, name):
        self.name = name
        self.total = 0

    def increment(self, amount=1):
        self.total += amount

    def delta_since(self, earlier_total):
        return self.total - earlier_total

    def __repr__(self):
        return f"Counter({self.name!r}, total={self.total})"


class LevelMonitor:
    """Tracks a time-weighted level (queue length, population, busy servers).

    Reads the clock from the environment, so updates are one-argument.
    """

    __slots__ = ("env", "name", "_tw")

    def __init__(self, env, name, initial=0.0):
        self.env = env
        self.name = name
        self._tw = TimeWeighted(initial=initial, start_time=env.now)

    @property
    def value(self):
        return self._tw.value

    def set(self, value):
        self._tw.update(value, self.env.now)

    def add(self, delta):
        self._tw.add(delta, self.env.now)

    def area(self):
        """Time integral of the level up to now."""
        return self._tw.area(self.env.now)

    def time_average(self):
        return self._tw.time_average(self.env.now)

    def window_average(self, area_at_start, window_start):
        return self._tw.window_average(
            area_at_start, window_start, self.env.now
        )

    def __repr__(self):
        return f"LevelMonitor({self.name!r}, value={self.value!r})"


class BusyTracker:
    """Accumulates server busy-time for a resource pool.

    :meth:`busy_area` integrates busy-server-seconds. Model code additionally
    classifies consumed service time as *useful* or *wasted* when each
    transaction attempt resolves (commit vs. restart), which yields the
    paper's total and useful utilization curves.

    The busy-server count is a piecewise-constant signal integrated in
    three fields: ``_level`` (servers busy now), ``_area`` (the integral
    up to ``_last``) and ``_last`` (the instant of the last change) —
    the arithmetic of :class:`~repro.stats.timeweighted.TimeWeighted`,
    held flat. A pool's ``serve`` and ``finish`` run once per CPU or
    disk leg, the hottest calls of a simulation, so they update these
    fields in line, exactly as :meth:`acquire`/:meth:`release` do.
    """

    __slots__ = (
        "env", "name", "capacity", "_level", "_area", "_last",
        "useful_time", "wasted_time",
    )

    def __init__(self, env, name, capacity):
        self.env = env
        self.name = name
        self.capacity = capacity
        self._level = 0.0
        self._area = 0.0
        self._last = env.now
        self.useful_time = 0.0
        self.wasted_time = 0.0

    def acquire(self):
        """One more server busy from now on."""
        self._shift(1)

    def release(self):
        """One server fewer busy from now on."""
        self._shift(-1)

    def _shift(self, delta):
        now = self.env._now
        last = self._last
        if now < last:
            raise ValueError(f"time went backwards: {now} < {last}")
        self._area += self._level * (now - last)
        self._last = now
        self._level += delta

    @property
    def busy_now(self):
        """Servers busy at this instant (time-series sampling)."""
        return self._level

    def record_outcome(self, service_time, useful):
        """Attribute ``service_time`` of consumed service to an outcome."""
        if useful:
            self.useful_time += service_time
        else:
            self.wasted_time += service_time

    def busy_area(self):
        """Busy-server-seconds accumulated so far."""
        now = self.env.now
        if now < self._last:
            raise ValueError(f"time went backwards: {now} < {self._last}")
        return self._area + self._level * (now - self._last)

    def utilization(self, busy_area_at_start, window_start):
        """Mean fraction of servers busy over [window_start, now]."""
        elapsed = self.env.now - window_start
        if elapsed <= 0.0 or not self.capacity:
            return 0.0
        if self.capacity == float("inf"):
            return 0.0
        area = self.busy_area() - busy_area_at_start
        return area / (elapsed * self.capacity)

    def useful_utilization(self, useful_at_start, window_start):
        """Fraction of server capacity spent on work that committed."""
        elapsed = self.env.now - window_start
        if elapsed <= 0.0 or not self.capacity:
            return 0.0
        if self.capacity == float("inf"):
            return 0.0
        useful = self.useful_time - useful_at_start
        return useful / (elapsed * self.capacity)

"""Numerically stable running mean/variance (Welford's online algorithm)."""

import math


class Welford:
    """Online accumulator for count, mean, variance, min and max.

    Uses Welford's recurrence, which is numerically stable for long runs
    (the naive sum-of-squares formula loses precision catastrophically when
    the mean is large relative to the spread, which happens with simulated
    clock readings).

    >>> w = Welford()
    >>> for x in (2.0, 4.0, 6.0):
    ...     w.add(x)
    >>> w.mean
    4.0
    >>> w.variance
    4.0
    """

    __slots__ = ("count", "_mean", "_m2", "min", "max")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value):
        """Fold one observation into the accumulator."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other):
        """Fold another accumulator into this one (parallel Welford merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._mean += delta * other.count / total
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self):
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self):
        """Sample variance (n-1 denominator); 0.0 with fewer than 2 points."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self):
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def snapshot(self):
        """Return an independent copy (for per-batch deltas)."""
        copy = Welford()
        copy.count = self.count
        copy._mean = self._mean
        copy._m2 = self._m2
        copy.min = self.min
        copy.max = self.max
        return copy

    def delta_since(self, earlier):
        """Return a Welford holding observations added after ``earlier``.

        ``earlier`` must be a snapshot of this accumulator taken previously.
        This inverts :meth:`merge`: given totals for [0, now) and a snapshot
        for [0, then), it reconstructs the statistics of [then, now), which is
        exactly what per-batch statistics need. Min/max cannot be inverted, so
        the delta's min/max are copied from the cumulative accumulator.
        """
        if earlier.count > self.count:
            raise ValueError("snapshot is newer than the accumulator")
        result = Welford()
        result.count = self.count - earlier.count
        if result.count == 0:
            return result
        total_sum = self._mean * self.count
        earlier_sum = earlier._mean * earlier.count
        result._mean = (total_sum - earlier_sum) / result.count
        delta = earlier._mean - result._mean
        result._m2 = self._m2 - earlier._m2 - (
            delta * delta * earlier.count * result.count / self.count
        )
        if result._m2 < 0.0:  # guard tiny negative round-off
            result._m2 = 0.0
        result.min = self.min
        result.max = self.max
        return result

    def __len__(self):
        return self.count

    def __repr__(self):
        return (
            f"Welford(count={self.count}, mean={self.mean:.6g}, "
            f"std={self.std:.6g})"
        )

"""Seeded random-number streams for simulation components.

Each model component (terminal think times, transaction generation, disk
selection, restart delays, ...) draws from its own named stream, derived
deterministically from a root seed. This is standard simulation practice:
it decorrelates variance across components and keeps runs reproducible —
adding draws to one component does not perturb any other component's
sequence.

Draws that are a pure function of the seed and the parameters —
transaction content, terminal think times, uniform disk picks — are
read as :class:`DrawSequence`\\ s from :meth:`StreamFactory.sequence`,
in chunks, through a cursor the reader keeps. A sweep records each
sequence once and shares it across its grid points; a stand-alone
model draws its own, unrecorded.
"""

import hashlib
import math
import random


class RandomStream:
    """A named pseudo-random stream with the distributions the model needs.

    The hot distributions bypass :mod:`random`'s public wrappers where
    that is provably bit-identical: ``uniform_int`` calls the generator's
    ``_randbelow`` directly (exactly what ``randint`` bottoms out in),
    and the ``*_many`` batch variants make the same underlying draws in
    the same order as the equivalent loop of single draws, just without
    paying Python call dispatch per draw.
    """

    __slots__ = ("name", "seed", "_random", "_rand", "_randbelow")

    def __init__(self, seed, name=""):
        self.name = name
        self.seed = seed
        self._random = random.Random(seed)
        self._rand = self._random.random
        self._randbelow = self._random._randbelow

    def exponential(self, mean):
        """Sample Exp(mean). A mean of zero degenerates to 0.0."""
        if mean < 0:
            raise ValueError(f"mean must be >= 0, got {mean}")
        if mean == 0:
            return 0.0
        return self._random.expovariate(1.0 / mean)

    def exponential_many(self, mean, n):
        """``n`` draws of :meth:`exponential`, batched (same draws, in order).

        A mean of zero gives ``n`` zeros without consuming generator
        state, as the single draw does.
        """
        if mean < 0:
            raise ValueError(f"mean must be >= 0, got {mean}")
        if mean == 0:
            return [0.0] * n
        rate = 1.0 / mean
        expovariate = self._random.expovariate
        return [expovariate(rate) for _ in range(n)]

    def uniform(self, low, high):
        """Sample Uniform[low, high] (continuous)."""
        return self._random.uniform(low, high)

    def uniform_int(self, low, high):
        """Sample an integer uniformly from [low, high] inclusive.

        ``low + _randbelow(width)`` is exactly how ``randint`` is
        implemented, so this consumes the same generator state and
        returns the same values — minus two layers of re-validation.
        """
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        return low + self._randbelow(high - low + 1)

    def uniform_int_many(self, low, high, n):
        """``n`` draws of :meth:`uniform_int`, batched.

        Identical values, in order, to ``n`` single calls; batching
        exists so per-draw hot paths (disk selection) can amortize the
        method dispatch.
        """
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        width = high - low + 1
        randbelow = self._randbelow
        return [low + randbelow(width) for _ in range(n)]

    def bernoulli(self, p):
        """True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        return self._rand() < p

    def bernoulli_many(self, p, n):
        """``n`` draws of :meth:`bernoulli`, batched (same draws, in order)."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        rand = self._rand
        return [rand() < p for _ in range(n)]

    def lognormal(self, mean, cv):
        """Sample a lognormal with the given mean and coefficient of
        variation.

        Parameterized by the *arithmetic* moments rather than the
        underlying normal's (mu, sigma): sigma^2 = ln(1 + cv^2) and
        mu = ln(mean) - sigma^2 / 2, so ``lognormal(m, cv)`` has
        E[X] = m and CV[X] = cv exactly. A cv of 0 degenerates to the
        constant ``mean`` without consuming generator state.
        """
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        if cv < 0:
            raise ValueError(f"cv must be >= 0, got {cv}")
        if cv == 0:
            return mean
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        return self._random.lognormvariate(mu, math.sqrt(sigma2))

    def pareto(self, alpha, mean):
        """Sample a Pareto (Lomax-free, ``x >= xm``) with the given mean.

        The scale is derived from the target mean: for shape
        ``alpha > 1``, E[X] = alpha*xm/(alpha-1), so
        xm = mean*(alpha-1)/alpha. Shapes <= 1 have no finite mean and
        are rejected; 1 < alpha <= 2 has infinite variance — the
        heavy-tail regime the ``heavy_tailed`` workload model studies.
        """
        if alpha <= 1.0:
            raise ValueError(
                f"alpha must be > 1 for a finite mean, got {alpha}"
            )
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        xm = mean * (alpha - 1.0) / alpha
        return xm * self._random.paretovariate(alpha)

    def sample_without_replacement(self, population_size, k):
        """``k`` distinct integers from range(population_size).

        Used to draw a transaction's read set from the database; the paper
        chooses objects "randomly (without replacement) from among all of
        the objects in the database".
        """
        if k > population_size:
            raise ValueError(
                f"cannot draw {k} distinct items from {population_size}"
            )
        return self._random.sample(range(population_size), k)

    def choice(self, sequence):
        return self._random.choice(sequence)

    def shuffle(self, items):
        self._random.shuffle(items)

    def random(self):
        return self._rand()

    def __repr__(self):
        return f"RandomStream(name={self.name!r}, seed={self.seed!r})"


class DrawSequence:
    """One named sequence of draws, handed out in chunks.

    ``draw_chunk()`` returns the next chunk of draws (a list); it
    closes over the stream(s) it draws from. A reader keeps its own
    cursor, a chunk index and an offset into that chunk, and asks for
    chunk ``k + 1`` when chunk ``k`` runs out. Chunk boundaries never
    change the values: the streams feed nothing else, so their *n*-th
    draw is the same whether it was drawn one at a time or in any
    batch.

    A *recorded* sequence keeps every chunk it drew, so any number of
    readers, each at its own cursor, read the same values; a sweep
    shares one across its grid points (:mod:`repro.fastlane.tapes`).
    An unrecorded sequence has one reader, which asks for its chunks
    in order; it keeps nothing, so a long run holds one chunk at a
    time.
    """

    __slots__ = ("chunks", "_draw_chunk")

    def __init__(self, draw_chunk, recorded=False):
        self.chunks = [] if recorded else None
        self._draw_chunk = draw_chunk

    def chunk(self, index):
        """The ``index``-th chunk of draws (a list, never empty)."""
        chunks = self.chunks
        if chunks is None:
            return self._draw_chunk()
        while index >= len(chunks):
            chunks.append(self._draw_chunk())
        return chunks[index]


class StreamFactory:
    """Derives independent named :class:`RandomStream`s from one root seed.

    Derivation hashes (root_seed, name) with SHA-256, so streams are stable
    across runs and machines and independent of creation order.

    ``recorder``, when given, supplies :meth:`sequence`: an object with
    the same ``sequence(name, make_drawer)`` method that hands out
    recorded sequences of the same root seed (a
    :class:`~repro.fastlane.WorkloadTape`). Streams themselves are
    always this factory's own.
    """

    __slots__ = ("root_seed", "_created", "_recorder")

    def __init__(self, root_seed, recorder=None):
        self.root_seed = root_seed
        self._created = {}
        self._recorder = recorder

    def stream(self, name):
        """The stream for ``name`` (created on first use, then cached)."""
        if name in self._created:
            return self._created[name]
        digest = hashlib.sha256(
            f"{self.root_seed}/{name}".encode()
        ).digest()
        seed = int.from_bytes(digest[:8], "big")
        stream = RandomStream(seed, name)
        self._created[name] = stream
        return stream

    def sequence(self, name, make_drawer):
        """The :class:`DrawSequence` named ``name``.

        ``make_drawer(streams)`` is called once and returns the
        sequence's zero-argument chunk drawer, drawing from streams of
        ``streams``: the recorder's private factory when there is one
        (the sequence is then the recorder's, shared and recorded),
        else this factory (a private unrecorded sequence). Each name
        has one drawer for a given parameter set, so a recorded
        sequence serves every reader of that name.
        """
        if self._recorder is not None:
            return self._recorder.sequence(name, make_drawer)
        return DrawSequence(make_drawer(self))

    def __repr__(self):
        return f"StreamFactory(root_seed={self.root_seed!r})"

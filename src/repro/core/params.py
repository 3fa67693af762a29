"""Simulation parameters (the paper's Table 1) and run configuration.

`SimulationParameters.table2()` reproduces the paper's Table 2 base
settings: a 1000-page database, 8-page mean read sets (uniform 4..12),
write probability 0.25, 200 terminals, 1 second external think time,
35 ms of disk and 15 ms of CPU per object access.
"""

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional, Tuple

from repro.faults.spec import FaultSpec

# Restart-delay modes (how restarted transactions are delayed before
# re-entering the ready queue).
DELAY_MODE_DEFAULT = "default"        # each algorithm's own policy
DELAY_MODE_ADAPTIVE_ALL = "adaptive_all"  # Figure 11: delay for everyone
DELAY_MODE_NONE_ALL = "none_all"      # never delay (sensitivity studies;
#   WARNING: combined with algorithms that restart the *requester*
#   (immediate_restart, wait_die) this livelocks by design — the same
#   conflict re-occurs with no simulated time passing, which is exactly
#   why the paper's immediate-restart carries a delay. The engine
#   detects the spin and raises instead of hanging.
DELAY_MODE_FIXED_ALL = "fixed_all"    # fixed mean for everyone

_DELAY_MODES = (
    DELAY_MODE_DEFAULT,
    DELAY_MODE_ADAPTIVE_ALL,
    DELAY_MODE_NONE_ALL,
    DELAY_MODE_FIXED_ALL,
)

# Object→disk placements (the ``skewed_disks`` resource model; the
# ``distributed`` model reuses the same machinery for object→node
# sharding).
DISK_PLACEMENT_CONTIGUOUS = "contiguous"  # id runs map to one disk each
DISK_PLACEMENT_STRIPED = "striped"        # round-robin (perfect striping)

_DISK_PLACEMENTS = (DISK_PLACEMENT_CONTIGUOUS, DISK_PLACEMENT_STRIPED)

# Commit protocols (the CC layer's commit-point seam). ``single_site``
# is the paper's atomic commit point; ``2pc`` wraps it in two-phase
# commit across the nodes a transaction touched.
COMMIT_SINGLE_SITE = "single_site"
COMMIT_TWO_PHASE = "2pc"


def normalize_workload_spec(spec):
    """Canonicalize a workload-spec mapping to a hashable tuple form.

    Accepts a dict (or an already-normalized tuple of pairs) and
    returns a sorted tuple of ``(key, value)`` pairs with list/tuple
    values recursively converted to tuples. The canonical form is
    hashable and order-independent, so it is safe inside the frozen
    parameter dataclass and its canonical (on-disk) identity.
    """
    if isinstance(spec, dict):
        items = spec.items()
    else:
        items = list(spec)
    normalized = []
    for key, value in sorted(items):
        if not isinstance(key, str) or not key:
            raise ValueError(
                f"workload_spec keys must be non-empty strings, got {key!r}"
            )
        if isinstance(value, (list, tuple)):
            value = tuple(value)
        elif value is not None and not isinstance(
            value, (str, int, float, bool)
        ):
            raise ValueError(
                f"workload_spec[{key!r}] must be a scalar or sequence, "
                f"got {type(value).__name__}"
            )
        normalized.append((key, value))
    keys = [key for key, _ in normalized]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate workload_spec keys: {keys}")
    return tuple(normalized)


@dataclass(frozen=True)
class TransactionClass:
    """One class in a multiclass workload mix.

    ``weight`` is the relative arrival frequency; size and write
    probability override the global parameters for transactions of
    this class.
    """

    name: str
    weight: float
    min_size: int
    max_size: int
    write_prob: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("class name must be non-empty")
        if self.weight <= 0.0:
            raise ValueError(
                f"class {self.name!r}: weight must be > 0, "
                f"got {self.weight}"
            )
        if not 1 <= self.min_size <= self.max_size:
            raise ValueError(
                f"class {self.name!r}: need 1 <= min_size <= max_size"
            )
        if not 0.0 <= self.write_prob <= 1.0:
            raise ValueError(
                f"class {self.name!r}: write_prob must be in [0, 1]"
            )


@dataclass(frozen=True)
class SimulationParameters:
    """Workload, database and physical-resource parameters (Table 1).

    ``num_cpus``/``num_disks`` of None model the paper's *infinite
    resources* assumption: transactions never queue for CPU or I/O.

    All times are in seconds.
    """

    #: Number of objects (= pages) in the database.
    db_size: int = 1000
    #: Smallest transaction read-set size.
    min_size: int = 4
    #: Largest transaction read-set size.
    max_size: int = 12
    #: Pr[object is also written | object is read].
    write_prob: float = 0.25
    #: Number of terminals (the fixed user population of the closed model).
    num_terms: int = 200
    #: Multiprogramming level: max transactions active in the DBMS.
    mpl: int = 10
    #: Mean time between transactions, per terminal (exponential).
    ext_think_time: float = 1.0
    #: Mean intra-transaction think time between reads and writes
    #: (exponential); 0 disables the think path.
    int_think_time: float = 0.0
    #: I/O time to access one object.
    obj_io: float = 0.035
    #: CPU time to access one object.
    obj_cpu: float = 0.015
    #: CPU time per concurrency-control request (0 in the paper's tables;
    #: CC requests still get priority at the CPU when nonzero).
    cc_cpu: float = 0.0
    #: Number of CPU servers (None = infinite resources).
    num_cpus: Optional[int] = 1
    #: Number of disks (None = infinite resources).
    num_disks: Optional[int] = 2
    #: Restart-delay mode; see the DELAY_MODE_* constants.
    restart_delay_mode: str = DELAY_MODE_DEFAULT
    #: Mean restart delay when ``restart_delay_mode == "fixed_all"``.
    restart_delay: float = 1.0
    #: Hotspot skew (both None = the paper's uniform access pattern):
    #: ``hot_fraction`` of the database receives ``hot_access_prob`` of
    #: the accesses (the classic "x% of accesses to y% of the data"
    #: skew of later studies in this model family).
    hot_fraction: Optional[float] = None
    hot_access_prob: Optional[float] = None
    #: Default arrival rate (transactions/second) of the open workload
    #: models (``open_poisson``, ``trace``) when their spec sets none.
    arrival_rate: float = 10.0
    #: Workload model, by registry name (see :mod:`repro.workloads`):
    #: ``closed_classic`` (the paper's terminal pool, the default),
    #: ``open_poisson`` (Poisson or MMPP arrivals), ``heavy_tailed``
    #: (lognormal/Pareto think and service-size distributions),
    #: ``trace`` (deterministic JSONL playback with feedback routing).
    #: Validated lazily at model construction, like ``resource_model``,
    #: so plugin-registered models work without touching this module.
    workload_model: str = "closed_classic"
    #: Model-specific options for ``workload_model``, as a mapping
    #: (normalized to a sorted tuple of (key, value) pairs so parameter
    #: sets stay hashable). Keys are defined by each model: e.g.
    #: ``open_poisson`` takes ``process="mmpp"``,
    #: ``rates``/``sojourns``; ``heavy_tailed`` takes ``preset``,
    #: ``think_dist``, ``think_cv``, ``pareto_alpha``, ``size_dist``,
    #: ``size_cv``; ``trace`` takes ``path``, ``feedback_prob``,
    #: ``feedback_delay``, ``cycle``.
    workload_spec: Optional[Tuple] = None
    #: Concurrency-control granularity: the database is divided into
    #: this many equal granules and CC requests (locks, timestamps,
    #: validation) operate on granules rather than objects — the
    #: classic granularity trade-off of the model's ancestors
    #: [Ries77, Ries79]. None = object-level CC (the paper's setting,
    #: objects == pages == granules).
    lock_granules: Optional[int] = None
    #: Multiclass workload mix (None = the paper's single class using
    #: min_size/max_size/write_prob). With a mix, each new transaction
    #: draws its class by weight and uses that class's size and write
    #: probability.
    workload_mix: Optional[Tuple[TransactionClass, ...]] = None
    #: Fault injection (None = the paper's always-healthy resources).
    #: See :mod:`repro.faults`: disk crash/repair, CPU degradation
    #: windows, transient access faults — all seeded from dedicated RNG
    #: streams, so a null spec reproduces the healthy run bit-for-bit.
    faults: Optional[FaultSpec] = None
    #: Which physical tier to simulate, by registry name (see
    #: :mod:`repro.resources`): ``classic`` (the paper's Figure 2,
    #: the default), ``infinite``, ``buffered``, ``skewed_disks``.
    #: Validated lazily at model construction so plugin-registered
    #: models are usable without touching this module.
    resource_model: str = "classic"
    #: Buffer-pool pages of the exact LRU directory under
    #: ``resource_model="buffered"`` (None = db_size // 10).
    buffer_capacity: Optional[int] = None
    #: Fixed hit probability of every buffer probe under
    #: ``resource_model="buffered"``, drawn from a dedicated stream, in
    #: place of the LRU directory; None keeps LRU. Exclusive with
    #: ``buffer_capacity``.
    buffer_hit_ratio: Optional[float] = None
    #: Object→disk placement for ``resource_model="skewed_disks"``:
    #: ``"contiguous"`` (hot data ⇒ hot spindles) or ``"striped"``.
    #: The ``distributed`` model reuses the same placement machinery
    #: for object→node sharding.
    disk_placement: str = DISK_PLACEMENT_CONTIGUOUS
    #: Number of sites for ``resource_model="distributed"``: each node
    #: gets its own CPU pool and disk set (``num_cpus``/``num_disks``
    #: are *per-node* counts there). 1 (the default) is the paper's
    #: single-site model; other resource models ignore this.
    nodes: int = 1
    #: Mean one-way delay of one cross-node message (exponential,
    #: seeded from the ``resources.network`` stream). 0 models an
    #: instantaneous interconnect; local messages are always free.
    network_delay: float = 0.0
    #: Copies of each object in the distributed model: replicas live on
    #: the ring successors of the primary node. Reads go to the nearest
    #: copy; commit-time writes update every copy. 1 = no replication.
    replication_factor: int = 1
    #: Commit protocol at the CC layer's commit point (see
    #: :mod:`repro.cc`): ``"single_site"`` (the paper's atomic commit
    #: point) or ``"2pc"`` (two-phase commit across the nodes the
    #: transaction touched). Validated lazily at model construction so
    #: plugin-registered protocols work without touching this module.
    commit_protocol: str = COMMIT_SINGLE_SITE

    def __post_init__(self):
        if self.workload_mix is not None and not isinstance(
            self.workload_mix, tuple
        ):
            object.__setattr__(
                self, "workload_mix", tuple(self.workload_mix)
            )
        if self.workload_spec is not None:
            object.__setattr__(
                self, "workload_spec",
                normalize_workload_spec(self.workload_spec),
            )
        if self.db_size < 1:
            raise ValueError(f"db_size must be >= 1, got {self.db_size}")
        if not 1 <= self.min_size <= self.max_size:
            raise ValueError(
                f"need 1 <= min_size <= max_size, got "
                f"[{self.min_size}, {self.max_size}]"
            )
        if self.max_size > self.db_size:
            raise ValueError(
                f"max_size ({self.max_size}) exceeds db_size ({self.db_size})"
            )
        if not 0.0 <= self.write_prob <= 1.0:
            raise ValueError(f"write_prob must be in [0,1]: {self.write_prob}")
        if self.num_terms < 1:
            raise ValueError(f"num_terms must be >= 1, got {self.num_terms}")
        if self.mpl < 1:
            raise ValueError(f"mpl must be >= 1, got {self.mpl}")
        for name in ("ext_think_time", "int_think_time", "obj_io",
                     "obj_cpu", "cc_cpu", "restart_delay"):
            value = getattr(self, name)
            if value < 0 or math.isnan(value):
                raise ValueError(f"{name} must be >= 0, got {value}")
        for name in ("num_cpus", "num_disks"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 or None, got {value}")
        if self.restart_delay_mode not in _DELAY_MODES:
            raise ValueError(
                f"restart_delay_mode must be one of {_DELAY_MODES}, "
                f"got {self.restart_delay_mode!r}"
            )
        if (self.hot_fraction is None) != (self.hot_access_prob is None):
            raise ValueError(
                "hot_fraction and hot_access_prob must be set together"
            )
        if self.hot_fraction is not None:
            if not 0.0 < self.hot_fraction < 1.0:
                raise ValueError(
                    f"hot_fraction must be in (0, 1): {self.hot_fraction}"
                )
            if not 0.0 <= self.hot_access_prob <= 1.0:
                raise ValueError(
                    f"hot_access_prob must be in [0, 1]: "
                    f"{self.hot_access_prob}"
                )
            if self.hot_object_count() < 1:
                raise ValueError(
                    "hot region is empty; increase hot_fraction or db_size"
                )
            if self.db_size - self.hot_object_count() < self.max_size:
                raise ValueError(
                    "cold region smaller than max_size; transactions "
                    "could not be drawn when every access goes cold"
                )
        if not self.workload_model or not isinstance(
            self.workload_model, str
        ):
            raise ValueError(
                f"workload_model must be a non-empty registry name, "
                f"got {self.workload_model!r}"
            )
        if self.lock_granules is not None and not (
            1 <= self.lock_granules <= self.db_size
        ):
            raise ValueError(
                f"lock_granules must be in [1, db_size], "
                f"got {self.lock_granules}"
            )
        if self.faults is not None:
            if not isinstance(self.faults, FaultSpec):
                raise TypeError(
                    f"faults must be a FaultSpec, got {type(self.faults)!r}"
                )
            if self.faults.disk is not None and self.num_disks is None:
                raise ValueError(
                    "disk faults require finite disks; set num_disks or "
                    "drop FaultSpec.disk"
                )
        if not self.resource_model or not isinstance(
            self.resource_model, str
        ):
            raise ValueError(
                f"resource_model must be a non-empty registry name, "
                f"got {self.resource_model!r}"
            )
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise ValueError(
                f"buffer_capacity must be >= 1 or None, "
                f"got {self.buffer_capacity}"
            )
        if self.buffer_hit_ratio is not None and not (
            0.0 <= self.buffer_hit_ratio <= 1.0
        ):
            raise ValueError(
                f"buffer_hit_ratio must be in [0, 1], "
                f"got {self.buffer_hit_ratio}"
            )
        if (self.buffer_capacity is not None
                and self.buffer_hit_ratio is not None):
            raise ValueError(
                "buffer_capacity (an LRU pool) and buffer_hit_ratio (a "
                "fixed hit ratio) are exclusive; set one"
            )
        if self.disk_placement not in _DISK_PLACEMENTS:
            raise ValueError(
                f"disk_placement must be one of {_DISK_PLACEMENTS}, "
                f"got {self.disk_placement!r}"
            )
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.network_delay < 0 or math.isnan(self.network_delay):
            raise ValueError(
                f"network_delay must be >= 0, got {self.network_delay}"
            )
        if not 1 <= self.replication_factor <= self.nodes:
            raise ValueError(
                f"replication_factor must be in [1, nodes], got "
                f"{self.replication_factor} with nodes={self.nodes}"
            )
        if not self.commit_protocol or not isinstance(
            self.commit_protocol, str
        ):
            raise ValueError(
                f"commit_protocol must be a non-empty registry name, "
                f"got {self.commit_protocol!r}"
            )
        if self.workload_mix is not None:
            if not self.workload_mix:
                raise ValueError("workload_mix must not be empty")
            names = [cls.name for cls in self.workload_mix]
            if len(set(names)) != len(names):
                raise ValueError(
                    f"duplicate class names in workload_mix: {names}"
                )
            for cls in self.workload_mix:
                if cls.max_size > self.db_size:
                    raise ValueError(
                        f"class {cls.name!r}: max_size exceeds db_size"
                    )

    # -- derived quantities ------------------------------------------------

    @property
    def tran_size(self):
        """Mean read-set size.

        Single class: the mean of the uniform [min_size, max_size];
        with a workload mix, the weight-averaged class mean.
        """
        return self.expected_reads()

    def expected_reads(self):
        """Mean objects read per transaction (across classes)."""
        if self.workload_mix is None:
            return (self.min_size + self.max_size) / 2.0
        total_weight = sum(cls.weight for cls in self.workload_mix)
        return sum(
            cls.weight * (cls.min_size + cls.max_size) / 2.0
            for cls in self.workload_mix
        ) / total_weight

    def expected_writes(self):
        """Mean objects written per transaction (across classes)."""
        if self.workload_mix is None:
            return self.tran_size * self.write_prob
        total_weight = sum(cls.weight for cls in self.workload_mix)
        return sum(
            cls.weight * (cls.min_size + cls.max_size) / 2.0
            * cls.write_prob
            for cls in self.workload_mix
        ) / total_weight

    def workload_options(self):
        """The normalized ``workload_spec`` as a plain dict ({} if unset)."""
        if self.workload_spec is None:
            return {}
        return dict(self.workload_spec)

    def cc_unit_of(self, obj):
        """The concurrency-control unit (granule) covering ``obj``.

        Objects map to contiguous equal-sized granules; with
        ``lock_granules`` unset this is the identity (object-level CC).
        """
        if self.lock_granules is None:
            return obj
        return obj * self.lock_granules // self.db_size

    def hot_object_count(self):
        """Number of objects in the hot region (0 for uniform access)."""
        if self.hot_fraction is None:
            return 0
        return int(self.db_size * self.hot_fraction)

    @property
    def has_hotspot(self):
        return self.hot_fraction is not None

    def expected_service_time(self):
        """No-contention, no-queueing time for an average transaction.

        Reads cost obj_io + obj_cpu each; each written object adds
        obj_cpu at the write request and obj_io at deferred-update time.
        Used to seed the adaptive restart-delay estimate before the first
        commit is observed.
        """
        reads = self.expected_reads() * (self.obj_io + self.obj_cpu)
        writes = self.expected_writes() * (self.obj_cpu + self.obj_io)
        return reads + writes + self.int_think_time

    def with_changes(self, **changes):
        """A copy with the given fields replaced (validated afresh)."""
        return replace(self, **changes)

    # -- identity ----------------------------------------------------------

    def canonical(self):
        """Every field as sorted, JSON-able data: the on-disk identity.

        In process, frozen-dataclass equality is the identity; files
        (checkpoint headers, saved sweeps) store and compare this form,
        so no field can be left out of "the same configuration".
        """
        return json.loads(json.dumps(asdict(self), sort_keys=True))

    def fingerprint(self):
        """The sha256 hex digest of :meth:`canonical`."""
        return canonical_fingerprint(self.canonical())

    @classmethod
    def table2(cls, **overrides):
        """The paper's Table 2 settings (finite resources: 1 CPU, 2 disks).

        ``mpl`` defaults to 10 here; experiments sweep it over
        {5, 10, 25, 50, 75, 100, 200}.
        """
        base = dict(
            db_size=1000,
            min_size=4,
            max_size=12,
            write_prob=0.25,
            num_terms=200,
            ext_think_time=1.0,
            obj_io=0.035,
            obj_cpu=0.015,
            num_cpus=1,
            num_disks=2,
        )
        base.update(overrides)
        return cls(**base)

    def describe(self):
        """Multi-line human-readable parameter listing."""
        lines = []
        for f in fields(self):
            lines.append(f"  {f.name} = {getattr(self, f.name)!r}")
        return "SimulationParameters(\n" + "\n".join(lines) + "\n)"


def canonical_fingerprint(canonical):
    """sha256 hex digest of :meth:`SimulationParameters.canonical` data.

    Takes the plain data so a file's stored identity (a checkpoint
    header's ``params``) fingerprints without rebuilding the params.
    """
    text = json.dumps(canonical, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: The multiprogramming levels swept by the paper's experiments.
PAPER_MPLS = (5, 10, 25, 50, 75, 100, 200)


@dataclass(frozen=True)
class RunConfig:
    """Statistical run controls (the paper's batch-means discipline)."""

    #: Post-warmup batches (the paper uses 20).
    batches: int = 20
    #: Simulated seconds per batch.
    batch_time: float = 30.0
    #: Leading batches discarded as warmup.
    warmup_batches: int = 1
    #: Root seed for all random streams.
    seed: int = 42
    #: Confidence level for reported intervals (the paper uses 90%).
    confidence: float = 0.90

    def __post_init__(self):
        if self.batches < 1:
            raise ValueError(f"batches must be >= 1, got {self.batches}")
        if self.batch_time <= 0:
            raise ValueError(
                f"batch_time must be > 0, got {self.batch_time}"
            )
        if self.warmup_batches < 0:
            raise ValueError(
                f"warmup_batches must be >= 0, got {self.warmup_batches}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0,1), got {self.confidence}"
            )

    def with_changes(self, **changes):
        return replace(self, **changes)

"""repro.obs — the unified instrumentation layer.

One typed event stream (:class:`InstrumentationBus`) carries every
operational signal out of the engine — transaction lifecycle,
concurrency-control decisions, resource busy/idle, fault events — and
pluggable subscribers turn it into traces, invariant checks (serial
replay included), time-series samples and streaming JSONL. The stream
is for observers only: the metrics and fault counts that reports read
are kept by the engine, the resource model and the fault injector
themselves.

See DESIGN.md §11 for the architecture, the event taxonomy, the
subscriber protocol, and the overhead guarantees.
"""

from repro.obs import events
from repro.obs.bus import InstrumentationBus
from repro.obs.invariants import (
    INVARIANT_MODES,
    InvariantChecker,
    InvariantViolation,
    InvariantViolationError,
    resolve_invariant_mode,
)
from repro.obs.events import (
    ALL_KINDS,
    BUFFER_KINDS,
    FAULT_KINDS,
    LIFECYCLE_KINDS,
    RESOURCE_KINDS,
)
from repro.obs.jsonl import JsonlSink, read_jsonl
from repro.obs.subscribers import Subscriber, scalar_fields
from repro.obs.timeseries import SAMPLE_FIELDS, TimeSeriesSampler

__all__ = [
    "InstrumentationBus",
    "InvariantChecker",
    "InvariantViolation",
    "InvariantViolationError",
    "INVARIANT_MODES",
    "resolve_invariant_mode",
    "Subscriber",
    "TimeSeriesSampler",
    "JsonlSink",
    "read_jsonl",
    "scalar_fields",
    "events",
    "ALL_KINDS",
    "LIFECYCLE_KINDS",
    "FAULT_KINDS",
    "RESOURCE_KINDS",
    "BUFFER_KINDS",
    "SAMPLE_FIELDS",
]

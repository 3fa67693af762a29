"""Span tracing of the simulator's layer entry points, installed at run time.

A traced pass wraps public entry points of each layer -- class methods
and module functions -- records one span per call (one per resume for
the service generators of the resource tier and the commit protocol),
and restores the originals when the pass ends. Nothing in the package is
edited, and an untraced pass installs nothing.

Spans stay in flat in-memory arrays (layer, parent span, start, end, in
ns) until the pass ends; :meth:`Tracer.write` writes them out. A
layer's self time is the duration of its spans minus the part their
child spans cover. The event loop (``des``) resumes the engine's
transaction generators (``core``), so outside timing cannot separate
the two: time covered by no span, plus the self time of the
simulation-run frames (``run_simulation``, ``run_point_replications``),
is reported together as the kernel remainder.
"""

import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps

#: Layer ids, in table order. ``des`` holds the kernel remainder.
LAYERS = (
    "des", "cc", "protocol", "resources", "workloads", "obs", "stats",
    "experiments", "analytic",
)
DES, CC, PROTOCOL, RESOURCES, WORKLOADS, OBS, STATS, EXPERIMENTS, ANALYTIC = (
    range(len(LAYERS))
)

#: Entry points the engine calls on the concurrency-control algorithm.
CC_METHODS = ("read_request", "write_request", "pre_commit",
              "finalize_commit", "abort")
#: Of those, the requests the engine issues per access and at commit.
CC_REQUESTS = ("read_request", "write_request", "pre_commit")
#: Service generators and accounting hooks of the resource tier.
RESOURCE_METHODS = (
    "read_access", "write_request_work", "deferred_update",
    "cc_request_work", "cpu_service", "disk_service", "disk_service_at",
    "network_leg", "charge_attempt",
)
#: Module functions: (module, function, layer).
FUNCTIONS = (
    ("repro.core.simulation", "run_simulation", DES),
    ("repro.fastlane.backend", "run_point_replications", DES),
    ("repro.experiments.runner", "run_sweep", EXPERIMENTS),
    ("repro.analytic.explore", "explore", ANALYTIC),
    ("repro.analytic.contention", "surrogate_prediction", ANALYTIC),
)


def _subclasses(cls):
    """``cls`` and every class derived from it, parents first."""
    found = [cls]
    for klass in found:
        for sub in klass.__subclasses__():
            if sub not in found:
                found.append(sub)
    return found


def _own_functions(classes, names):
    """``(class, name)`` for each of ``names`` a class itself defines."""
    return [
        (klass, name)
        for klass in classes
        for name in names
        if inspect.isfunction(klass.__dict__.get(name))
    ]


def _transaction_sources():
    """Classes defining ``new_transaction`` (workload sources)."""
    found = []
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for value in vars(module).values():
            if (inspect.isclass(value) and value.__module__ == module_name
                    and inspect.isfunction(
                        value.__dict__.get("new_transaction"))):
                found.append(value)
    return found


class Tracer:
    """Wraps the layer entry points; records spans and call counts.

    One instance serves a whole process: :meth:`active` installs the
    wrappers for one pass, :meth:`reset` clears what the last pass
    recorded. ``models`` collects every ``SystemModel`` built during the
    pass so model-side counters can be read once it has finished.
    """

    def __init__(self):
        # Imported here: the tracer must not import the package before
        # the benchmark has put the checkout's sources on sys.path.
        import repro.analytic.contention  # noqa: F401
        import repro.analytic.explore  # noqa: F401
        import repro.core.workload  # noqa: F401
        import repro.experiments.runner  # noqa: F401
        import repro.fastlane  # noqa: F401
        import repro.workloads  # noqa: F401
        from repro.cc import CommitProtocol, ConcurrencyControl
        from repro.core.engine import SystemModel
        from repro.obs import InstrumentationBus
        from repro.resources.base import ResourceModel
        from repro.stats import BatchMeansAnalyzer

        self.layer = array("B")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.models = []
        #: Wrapped entry points: (site name, layer), indexed like calls.
        self.sites = []
        self.calls = []
        self._methods = []
        self._functions = []
        self._installed = []

        method_plan = [
            (owner, name, CC)
            for owner, name in _own_functions(
                _subclasses(ConcurrencyControl), CC_METHODS)
        ] + [
            (owner, name, PROTOCOL)
            for owner, name in _own_functions(
                _subclasses(CommitProtocol), ("prepare", "decide"))
        ] + [
            (owner, name, RESOURCES)
            for owner, name in _own_functions(
                _subclasses(ResourceModel), RESOURCE_METHODS)
        ] + [
            (owner, "new_transaction", WORKLOADS)
            for owner in _transaction_sources()
        ] + [
            (InstrumentationBus, "emit", OBS),
            (BatchMeansAnalyzer, "record", STATS),
        ]
        for owner, name, layer in method_plan:
            original = owner.__dict__[name]
            self._methods.append(
                (owner, name, self._wrap(name, layer, original))
            )
        for module_name, name, layer in FUNCTIONS:
            original = getattr(sys.modules[module_name], name)
            self._functions.append(
                (original, self._wrap(name, layer, original))
            )
        self._methods.append(
            (SystemModel, "__init__", self._collect(SystemModel.__init__))
        )

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, layer, function):
        site = len(self.sites)
        self.sites.append((name, layer))
        self.calls.append(0)
        if inspect.isgeneratorfunction(function):
            return self._wrap_generator(site, layer, function)
        return self._wrap_call(site, layer, function)

    def _wrap_call(self, site, layer, function):
        layers, parents, starts, ends = (
            self.layer, self.parent, self.start, self.end
        )
        stack, calls, clock = self._stack, self.calls, time.perf_counter_ns

        @wraps(function)
        def traced(*args, **kwargs):
            calls[site] += 1
            index = len(layers)
            layers.append(layer)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _wrap_generator(self, site, layer, function):
        """Times every resume of the generator ``function`` returns."""
        layers, parents, starts, ends = (
            self.layer, self.parent, self.start, self.end
        )
        stack, calls, clock = self._stack, self.calls, time.perf_counter_ns

        @wraps(function)
        def traced(*args, **kwargs):
            calls[site] += 1
            generator = function(*args, **kwargs)
            value = error = None
            while True:
                index = len(layers)
                layers.append(layer)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(index)
                starts.append(clock())
                try:
                    if error is None:
                        item = generator.send(value)
                    else:
                        item = generator.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    ends[index] = clock()
                    stack.pop()
                try:
                    value = yield item
                    error = None
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as thrown:
                    # Forwarded into the wrapped generator on the next
                    # resume, exactly as ``yield from`` would.
                    value, error = None, thrown

        return traced

    def _collect(self, init):
        models = self.models

        @wraps(init)
        def traced_init(model, *args, **kwargs):
            init(model, *args, **kwargs)
            models.append(model)

        return traced_init

    # -- installation --------------------------------------------------------

    @contextmanager
    def active(self):
        """Install every wrapper for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self):
        for owner, name, wrapper in self._methods:
            self._installed.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, wrapper)
        # Module functions are patched wherever a module bound them by
        # name, so ``from module import function`` callers see them too.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for original, wrapper in self._functions:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, name, original))
                        setattr(module, name, wrapper)

    def _uninstall(self):
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def reset(self):
        """Forget the spans, call counts and models of the last pass."""
        for column in (self.layer, self.parent, self.start, self.end):
            del column[:]
        self._stack[1:] = []
        self.calls[:] = [0] * len(self.calls)
        self.models.clear()

    # -- results -------------------------------------------------------------

    def calls_by_name(self):
        """Call counts per entry-point name, summed over classes."""
        counts = {}
        for (name, layer), calls in zip(self.sites, self.calls):
            key = (LAYERS[layer], name)
            counts[key] = counts.get(key, 0) + calls
        return counts

    def layer_calls(self):
        counts = [0] * len(LAYERS)
        for (_, layer), calls in zip(self.sites, self.calls):
            counts[layer] += calls
        return counts

    def self_seconds(self, wall_s):
        """Self seconds per layer; ``des`` takes the kernel remainder."""
        own = self_times_ns(self.layer, self.start, self.end, self.parent,
                            len(LAYERS))
        seconds = [ns / 1e9 for ns in own]
        seconds[DES] = wall_s - sum(seconds[DES + 1:])
        return seconds

    def write(self, path, meta):
        """Write the spans (binary columns) and a JSON header describing them."""
        columns = (
            ("layer", self.layer), ("parent", self.parent),
            ("start_ns", self.start), ("end_ns", self.end),
        )
        header = {
            **meta,
            "layers": list(LAYERS),
            "spans": len(self.layer),
            "columns": [
                {"name": name, "typecode": column.typecode,
                 "itemsize": column.itemsize}
                for name, column in columns
            ],
        }
        with open(path + ".bin", "wb") as handle:
            for _, column in columns:
                column.tofile(handle)
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump(header, handle, indent=2)


def self_times_ns(layers, starts, ends, parents, layer_count):
    """Per-layer self time: span durations minus their children's.

    ``parents[i]`` is the index of span ``i``'s enclosing span, or -1 at
    the top level; a parent is always recorded before its children.
    """
    covered = [0] * len(layers)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[index] - starts[index]
    own = [0] * layer_count
    for index, layer in enumerate(layers):
        own[layer] += ends[index] - starts[index] - covered[index]
    return own

"""The workload-model service interface.

A workload model owns *transaction origination*: where transactions
come from (a closed terminal pool, an open arrival stream, a recorded
trace), when they are submitted, and what content generator draws their
read/write sets. Everything below the origination layer — admission
control, CC algorithms, the physical tier, metrics — is untouched by a
model swap, exactly as the resource-model registry decouples the
physical tier (DESIGN.md section 13).

The engine's side of the contract is small:

* ``model.submit(tx)`` — stamp and enqueue a freshly drawn transaction
  (the engine assigns ``done_event``, ``first_submit_time`` and the
  priority timestamp, then applies mpl admission);
* ``model.workload.new_transaction(terminal_id)`` — the content source
  :meth:`WorkloadModel.build_generator` built: by default a
  :class:`~repro.core.workload.ContentCursor` over the ``workload``
  draw sequence, for ``trace`` the model's own
  :class:`~repro.workloads.trace.TraceSource`;
* ``model.streams`` / ``model.env`` — named seeded streams and the
  event loop, for think/arrival timing processes;
* ``model.streams.sequence(name, make_drawer)`` — a named sequence of
  draws in chunks (:class:`~repro.des.rng.DrawSequence`), read through
  a cursor the model keeps. ``make_drawer(streams)`` returns the
  zero-argument chunk drawer over streams of ``streams``. In a sweep
  this is the sweep's recorded sequence, drawn from the tape's own
  streams and shared by every grid point, so a model may use it only
  for draws that are a pure function of the seed and the parameters,
  on streams it draws from nowhere else (transaction content, and
  ``closed_classic``'s think times, are the examples).
"""

from repro.core.workload import ContentCursor, WorkloadGenerator

__all__ = ["WorkloadModel"]


class WorkloadModel:
    """Base class for registered workload models.

    Subclasses set ``name`` (the registry key) and override
    :meth:`start` to spawn their origination processes. ``__init__``
    receives the full :class:`~repro.core.params.SimulationParameters`
    and should parse/validate its ``workload_spec`` options eagerly, so
    a bad spec fails at model construction rather than mid-run.
    """

    #: Registry key; subclasses must override.
    name = ""

    #: True for models without a fixed closed population: arrivals are
    #: externally timed, nobody waits on completions, and the backlog
    #: can grow without bound. Enables the open-system metrics and the
    #: saturation detector.
    open_system = False

    def __init__(self, params):
        self.params = params
        self.options = params.workload_options()

    def build_generator(self, streams):
        """The content source: each transaction's read and write sets.

        The default reads the ``workload`` draw sequence, whose specs a
        :class:`WorkloadGenerator` draws with this model's
        :meth:`draw_size`, through a cursor of the model's own. Only
        trace playback supplies a different source.
        """
        return ContentCursor(streams.sequence("workload", self._content))

    def _content(self, streams):
        return WorkloadGenerator(self.params, streams, self.draw_size).chunk

    def draw_size(self, rng, min_size, max_size):
        """One read-set size draw; the paper's Uniform[min, max]."""
        return rng.uniform_int(min_size, max_size)

    def start(self, model):
        """Spawn this model's origination processes into ``model.env``."""
        raise NotImplementedError

    def summary(self, model):
        """Model-specific totals for the run report, or None.

        Open-system models return arrival/completion accounting and
        the stability verdict here; closed models return None so the
        classic totals dict stays byte-identical.
        """
        return None

    def _require_option(self, key):
        value = self.options.get(key)
        if value is None:
            raise ValueError(
                f"workload model {self.name!r} requires "
                f"workload_spec[{key!r}]"
            )
        return value

    def _unknown_options(self, known):
        unknown = sorted(set(self.options) - set(known))
        if unknown:
            raise ValueError(
                f"unknown workload_spec keys for {self.name!r}: "
                f"{unknown}; known keys: {sorted(known)}"
            )

    def __repr__(self):
        return f"<{type(self).__name__} name={self.name!r}>"

"""The fused point executor: one trajectory per grid point.

A replication is defined as a *segment* of one deterministic
trajectory (replication ``r`` runs with ``warmup_batches = w + r*B``),
so running every replication as its own ``run_simulation`` call would
re-simulate the whole trajectory prefix each time: ``R`` replications
would cost ``R*w + B*R*(R+1)/2`` batch-units.  This module simulates
each point's trajectory **once** (``w + R*B`` batch-units) and carves
all ``R`` replication results from it:

* one :class:`~repro.core.engine.SystemModel` advances through every
  batch boundary;
* ``R`` :class:`~repro.stats.BatchMeansAnalyzer` instances — one per
  replication, with the replication's warmup — record the *same*
  per-batch values, so analyzer ``r`` retains exactly the batches the
  stand-alone run of replication ``r`` would retain;
* cumulative totals and diagnostics are snapshotted at each
  replication's end boundary, where they equal the stand-alone run's
  end-of-run collection (every totals source is cumulative and
  non-mutating by construction).

Bit-identity per replication follows from determinism: both ways of
computing a replication run the same model, same seed, same event
order, and read it at the same boundaries.  The parity suite
(``tests/fastlane/``) pins this against the golden sha256 fingerprints
on all three paper algorithms, finite and infinite resources.

The sweep runner (:func:`repro.experiments.run_sweep`) calls
:func:`run_point_replications` once per attempt of every grid point,
with ``replications=1`` for an ordinary sweep.
"""

from repro.core.engine import SystemModel
from repro.core.simulation import (
    SimulationResult,
    _buffer_diagnostics,
    _collect_totals,
    _merge_invariant_diagnostics,
    _resolve_checker,
)
from repro.stats import BatchMeansAnalyzer

__all__ = ["run_point_replications"]


def run_point_replications(params, algorithm, run, replications,
                           workload=None, batch_callback=None,
                           invariants=None, subscribers=(),
                           boundary_diagnostics=None):
    """One fused trajectory; all ``replications`` results carved from it.

    Returns a list of ``replications`` :class:`SimulationResult`\\ s;
    element ``r`` is bit-identical to ``run_simulation(params,
    algorithm, run=run.with_changes(warmup_batches=run.warmup_batches
    + r * run.batches))``.  ``batch_callback`` fires after every batch
    boundary of the fused trajectory (the sweep watchdog rides there,
    exactly as in ``run_simulation``); ``workload`` is forwarded to the
    model (the sweep runner passes a tape-backed source).

    ``subscribers`` observe the whole trajectory.  ``boundary_diagnostics``
    (a zero-argument callable returning a dict or None) is read at each
    replication's end boundary and merged into that replication's
    diagnostics — the sweep runner reports its time series and trace
    file there, so replication ``r`` sees exactly what a stand-alone run
    of it would have observed.
    """
    checker, subscribers = _resolve_checker(invariants, subscribers)
    model = SystemModel(
        params,
        algorithm=algorithm,
        seed=run.seed,
        workload=workload,
        subscribers=subscribers,
    )
    warmup, batches = run.warmup_batches, run.batches
    analyzers = [
        BatchMeansAnalyzer(
            warmup_batches=warmup + rep * batches,
            confidence=run.confidence,
        )
        for rep in range(replications)
    ]
    carved = [None] * replications
    env = model.env
    metrics = model.metrics
    batch_time = run.batch_time
    total_batches = warmup + replications * batches
    # Replication r's run ends at batch w + (r+1)*B: its analyzer must
    # not see later batches (the stand-alone run has stopped by then),
    # so analyzers retire in order as their end boundaries pass.
    first_active = 0
    for batch_index in range(total_batches):
        snapshot = metrics.snapshot()
        env.run(until=(batch_index + 1) * batch_time)
        values = metrics.batch_values(snapshot)
        for analyzer in analyzers[first_active:]:
            analyzer.record(values)
        if batch_callback is not None:
            batch_callback(model)
        # At a replication's end boundary the cumulative totals (and
        # the checker/buffer reports) equal what a stand-alone run of
        # that replication collects at its end of run.
        boundary = batch_index + 1 - warmup
        if boundary > 0 and boundary % batches == 0:
            rep = boundary // batches - 1
            if rep < replications:
                diagnostics = _merge_invariant_diagnostics(
                    _buffer_diagnostics(model), checker
                )
                extra = (
                    boundary_diagnostics()
                    if boundary_diagnostics is not None else None
                )
                if extra:
                    diagnostics = {**(diagnostics or {}), **extra}
                carved[rep] = (_collect_totals(model), diagnostics)
                first_active = rep + 1
    results = []
    for rep in range(replications):
        totals, diagnostics = carved[rep]
        results.append(SimulationResult(
            algorithm=model.cc.name,
            params=params,
            run=run if rep == 0 else run.with_changes(
                warmup_batches=warmup + rep * batches
            ),
            analyzer=analyzers[rep],
            totals=totals,
            diagnostics=diagnostics,
        ))
    return results

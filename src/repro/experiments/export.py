"""Exporting sweep results to machine-readable formats.

``sweep_to_rows`` flattens a :class:`~repro.experiments.runner.SweepResult`
into one row per (algorithm, mpl, metric); ``write_csv`` serializes the
rows of one or more sweeps so the figures can be re-plotted with any
external tool.

``timeseries_to_rows``/``write_timeseries_csv`` do the same for the
per-point time-series diagnostics captured by
``run_sweep(..., timeseries=...)``: one row per sample tick per point,
long format, ready for pandas/gnuplot.
"""

import csv
import io

from repro.experiments.figures import figures_of
from repro.obs import SAMPLE_FIELDS

#: Column order of the flattened rows.
CSV_COLUMNS = (
    "experiment",
    "figures",
    "algorithm",
    "mpl",
    "metric",
    "mean",
    "ci_half_width",
    "ci_low",
    "ci_high",
    "confidence",
    "batches",
)


def sweep_to_rows(sweep, metrics=None):
    """Flatten a sweep into dict rows (one per algorithm x mpl x metric).

    ``metrics`` defaults to the owning experiment's plotted metrics.
    """
    config = sweep.config
    metrics = tuple(metrics) if metrics is not None else config.metrics
    figures = "+".join(map(str, figures_of(config.experiment_id)))
    rows = []
    for (algorithm, mpl), result in sorted(sweep.results.items()):
        for metric in metrics:
            interval = result.interval(metric)
            rows.append({
                "experiment": config.experiment_id,
                "figures": figures,
                "algorithm": algorithm,
                "mpl": mpl,
                "metric": metric,
                "mean": interval.mean,
                "ci_half_width": interval.half_width,
                "ci_low": interval.low,
                "ci_high": interval.high,
                "confidence": interval.confidence,
                "batches": interval.n,
            })
    return rows


def write_csv(sweeps, destination, metrics=None):
    """Write the flattened sweep(s) to ``destination``.

    ``sweeps`` is one sweep or a list of sweeps (rows in list order);
    ``destination`` may be a path or a writable text file object.
    Returns the number of data rows written.
    """
    rows = [
        row for sweep in _sweep_list(sweeps)
        for row in sweep_to_rows(sweep, metrics=metrics)
    ]
    _write_rows(destination, CSV_COLUMNS, rows)
    return len(rows)


def rows_to_csv_text(sweep, metrics=None):
    """The CSV as a string (convenience for tests and notebooks)."""
    buffer = io.StringIO()
    write_csv(sweep, buffer, metrics=metrics)
    return buffer.getvalue()


def _sweep_list(sweeps):
    """One sweep or a list of sweeps, as a list."""
    return [sweeps] if hasattr(sweeps, "results") else list(sweeps)


def _write_rows(destination, columns, rows):
    if not hasattr(destination, "write"):
        with open(destination, "w", newline="") as f:
            _write_rows(f, columns, rows)
        return
    writer = csv.DictWriter(destination, fieldnames=columns)
    writer.writeheader()
    writer.writerows(rows)


#: Column order of the flattened time-series rows: point identity, then
#: the sampler's fields in their canonical order.
TIMESERIES_COLUMNS = ("experiment", "algorithm", "mpl") + SAMPLE_FIELDS


def timeseries_to_rows(sweep):
    """Flatten every point's sampled time-series into long-format rows.

    Points without diagnostics (sweep run without ``timeseries=``, or
    loaded from a pre-observability document) contribute no rows.
    """
    experiment = sweep.config.experiment_id
    rows = []
    for (algorithm, mpl), result in sorted(sweep.results.items()):
        diagnostics = result.diagnostics or {}
        timeseries = diagnostics.get("timeseries")
        if not timeseries:
            continue
        series = timeseries["series"]
        for index in range(len(series["time"])):
            row = {
                "experiment": experiment,
                "algorithm": algorithm,
                "mpl": mpl,
            }
            for fieldname in SAMPLE_FIELDS:
                row[fieldname] = series[fieldname][index]
            rows.append(row)
    return rows


def write_timeseries_csv(sweeps, destination):
    """Write the sweep(s)' time-series diagnostics to ``destination``.

    ``sweeps`` is one sweep or a list of sweeps; ``destination`` may be
    a path or a writable text file object. Returns the number of data
    rows written (0 when no sweep carries time-series diagnostics).
    """
    rows = [
        row for sweep in _sweep_list(sweeps)
        for row in timeseries_to_rows(sweep)
    ]
    _write_rows(destination, TIMESERIES_COLUMNS, rows)
    return len(rows)

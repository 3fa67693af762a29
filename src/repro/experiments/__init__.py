"""The paper's evaluation: experiment presets, sweeps, figures, reports.

* :mod:`repro.experiments.configs` — Experiments 1-5 (and the
  extensions exp6-exp12) as presets, and the fixed grids findings
  sweep.
* :mod:`repro.experiments.runner` — the one sweep driver, for every
  grid.
* :mod:`repro.experiments.figures` — the claim registry: each of
  Figures 3-21 with its experiment, metrics, caption, pinned run and
  claim, and each named finding with its fixed arms, pinned run and
  claim; ``FigureBuilder().reproduce(key)`` regenerates and checks one.
* :mod:`repro.experiments.report` — ASCII tables and plots.
* :mod:`repro.experiments.cli` — the ``repro-experiments`` command;
  ``--figure N|NAME|all`` is the one reproduction path.
"""

from repro.experiments.configs import ExperimentConfig, experiment_configs
from repro.experiments.errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    ExperimentError,
    PointCancelledError,
    PointDeadlineExceeded,
    PointExecutionError,
    SimulationStalledError,
    error_severity,
)
from repro.experiments.figures import FIGURES, FigureBuilder, FigureData
from repro.experiments.export import (
    rows_to_csv_text,
    sweep_to_rows,
    timeseries_to_rows,
    write_csv,
    write_timeseries_csv,
)
from repro.experiments.persistence import (
    SweepCheckpoint,
    load_sweep,
    save_sweep,
    verify_checkpoint,
)
from repro.experiments.report import (
    ascii_plot,
    conflict_ratio_table,
    format_table,
    sweep_report,
)
from repro.experiments.runner import (
    DEFAULT_RUN,
    QUICK_RUN,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RETRIED,
    PointStatus,
    PointTrace,
    SweepResult,
    point_seed,
    retry_backoff,
    run_sweep,
)

__all__ = [
    "ExperimentConfig",
    "experiment_configs",
    "FIGURES",
    "FigureBuilder",
    "FigureData",
    "run_sweep",
    "SweepResult",
    "DEFAULT_RUN",
    "QUICK_RUN",
    "format_table",
    "ascii_plot",
    "sweep_report",
    "sweep_to_rows",
    "write_csv",
    "rows_to_csv_text",
    "timeseries_to_rows",
    "write_timeseries_csv",
    "conflict_ratio_table",
    "PointTrace",
    "save_sweep",
    "load_sweep",
    "SweepCheckpoint",
    "PointStatus",
    "STATUS_OK",
    "STATUS_RETRIED",
    "STATUS_FAILED",
    "ExperimentError",
    "PointExecutionError",
    "SimulationStalledError",
    "PointDeadlineExceeded",
    "PointCancelledError",
    "CheckpointMismatchError",
    "CheckpointCorruptError",
    "error_severity",
    "verify_checkpoint",
    "point_seed",
    "retry_backoff",
]

"""Tests for CSV export of sweep results."""

import csv
import io

import pytest

from repro.core import RunConfig, SimulationParameters
from repro.experiments import (
    ExperimentConfig,
    rows_to_csv_text,
    run_sweep,
    sweep_to_rows,
    write_csv,
)

TINY_RUN = RunConfig(batches=2, batch_time=5.0, warmup_batches=0, seed=41)


@pytest.fixture(scope="module")
def sweep():
    params = SimulationParameters(
        db_size=200, min_size=4, max_size=8, write_prob=0.25,
        num_terms=10, mpl=5, ext_think_time=0.5,
        obj_io=0.010, obj_cpu=0.005, num_cpus=1, num_disks=2,
    )
    config = ExperimentConfig(
        experiment_id="export-test",
        title="Export test",
        figures=(8, 9),
        params=params,
        algorithms=("blocking", "optimistic"),
        mpls=(2, 5),
        metrics=("throughput", "disk_util"),
    )
    return run_sweep(config, run=TINY_RUN)


class TestSweepToRows:
    def test_row_count(self, sweep):
        rows = sweep_to_rows(sweep)
        # 2 algorithms x 2 mpls x 2 metrics
        assert len(rows) == 8

    def test_row_contents(self, sweep):
        rows = sweep_to_rows(sweep)
        row = rows[0]
        assert row["experiment"] == "export-test"
        assert row["figures"] == "8+9"
        assert row["algorithm"] in ("blocking", "optimistic")
        assert row["metric"] in ("throughput", "disk_util")
        assert row["ci_low"] <= row["mean"] <= row["ci_high"]
        assert row["confidence"] == 0.90
        assert row["batches"] == 2

    def test_metric_restriction(self, sweep):
        rows = sweep_to_rows(sweep, metrics=["throughput"])
        assert len(rows) == 4
        assert all(row["metric"] == "throughput" for row in rows)


class TestWriteCsv:
    def test_to_file_object(self, sweep):
        buffer = io.StringIO()
        count = write_csv(sweep, buffer)
        assert count == 8
        parsed = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        assert len(parsed) == 8
        assert float(parsed[0]["mean"]) >= 0

    def test_to_path(self, sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(sweep, str(path))
        parsed = list(csv.DictReader(path.open()))
        assert len(parsed) == 8

    def test_list_of_sweeps_writes_rows_in_list_order(self, sweep):
        restricted = run_sweep(
            sweep.config, run=TINY_RUN, mpls=[2], algorithms=["blocking"],
        )
        buffer = io.StringIO()
        count = write_csv([restricted, sweep], buffer)
        parsed = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        assert count == len(parsed) == 2 + 8
        expected = sweep_to_rows(restricted) + sweep_to_rows(sweep)
        assert [(r["algorithm"], int(r["mpl"]), r["metric"])
                for r in parsed] == [
            (r["algorithm"], r["mpl"], r["metric"]) for r in expected
        ]

    def test_one_sweep_and_a_list_of_one_agree(self, sweep):
        single, listed = io.StringIO(), io.StringIO()
        assert write_csv(sweep, single) == write_csv([sweep], listed)
        assert single.getvalue() == listed.getvalue()

    def test_csv_text_round_trip(self, sweep):
        text = rows_to_csv_text(sweep)
        parsed = list(csv.DictReader(io.StringIO(text)))
        means = {
            (row["algorithm"], int(row["mpl"]), row["metric"]):
                float(row["mean"])
            for row in parsed
        }
        direct = sweep.result("blocking", 5).mean("throughput")
        assert means[("blocking", 5, "throughput")] == pytest.approx(
            direct
        )

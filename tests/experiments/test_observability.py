"""End-to-end tests of the observability plumbing through the
experiments layer: run_sweep diagnostics -> persistence -> CSV export
-> report diagnostics table."""

import csv
import io
import json

import pytest

from repro.core import RunConfig, SimulationParameters
from repro.experiments import (
    ExperimentConfig,
    PointTrace,
    conflict_ratio_table,
    experiment_configs,
    load_sweep,
    run_sweep,
    save_sweep,
    timeseries_to_rows,
    write_timeseries_csv,
)
from repro.experiments.export import TIMESERIES_COLUMNS
from repro.experiments.report import sweep_report
from repro.obs import read_jsonl
from repro.obs.timeseries import SAMPLE_FIELDS

TINY_RUN = RunConfig(batches=2, batch_time=5.0, warmup_batches=0, seed=11)


def tiny_config(**overrides):
    params = SimulationParameters(
        db_size=200, min_size=4, max_size=8, write_prob=0.25,
        num_terms=10, mpl=5, ext_think_time=0.5,
        obj_io=0.010, obj_cpu=0.005, num_cpus=1, num_disks=2,
    )
    defaults = dict(
        experiment_id="tiny",
        title="Tiny test sweep",
        params=params,
        algorithms=("blocking",),
        mpls=(2, 5),
        metrics=("throughput",),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def observed_sweep(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("traces")
    sweep = run_sweep(
        tiny_config(), run=TINY_RUN,
        timeseries=1.0,
        trace=PointTrace(
            directory=str(trace_dir), kinds=("submit", "commit")
        ),
    )
    return sweep, trace_dir


class TestRunnerDiagnostics:
    def test_every_point_has_diagnostics(self, observed_sweep):
        sweep, _ = observed_sweep
        for result in sweep.results.values():
            diag = result.diagnostics
            assert diag is not None
            assert diag["timeseries"]["interval"] == 1.0
            series = diag["timeseries"]["series"]
            assert set(series) == set(SAMPLE_FIELDS)
            assert len(series["time"]) > 0

    def test_trace_files_written_per_point(self, observed_sweep):
        sweep, trace_dir = observed_sweep
        names = sorted(p.name for p in trace_dir.iterdir())
        assert names == [
            "tiny.blocking.mpl002.jsonl",
            "tiny.blocking.mpl005.jsonl",
        ]
        for (algorithm, mpl), result in sweep.results.items():
            trace = result.diagnostics["trace"]
            events = read_jsonl(trace["path"])
            assert len(events) == trace["events"] > 0
            assert {e["kind"] for e in events} <= {"submit", "commit"}

    def test_observation_does_not_change_results(self, observed_sweep):
        sweep, _ = observed_sweep
        plain = run_sweep(tiny_config(), run=TINY_RUN)
        for key, observed in sweep.results.items():
            bare = plain.results[key]
            assert observed.totals == bare.totals
            assert observed.summary() == bare.summary()

    def test_validation_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="timeseries"):
            run_sweep(tiny_config(), run=TINY_RUN, timeseries=-1.0)

    def test_plain_sweep_has_no_diagnostics(self):
        sweep = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2])
        for result in sweep.results.values():
            assert result.diagnostics is None


class TestPersistenceRoundTrip:
    def test_diagnostics_survive_save_load(self, tmp_path):
        # load_sweep resolves configs from the registry by id, so the
        # round-trip needs a registered experiment (restricted to one
        # cheap point).
        sweep = run_sweep(
            experiment_configs()["exp2_infinite"],
            run=TINY_RUN, mpls=[5], algorithms=["blocking"],
            timeseries=2.0,
        )
        path = tmp_path / "sweep.json"
        save_sweep(sweep, str(path))
        loaded = load_sweep(str(path))
        for key, original in sweep.results.items():
            assert original.diagnostics is not None
            assert loaded.results[key].diagnostics == original.diagnostics

    def test_document_omits_key_without_diagnostics(self, tmp_path):
        sweep = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2])
        path = tmp_path / "sweep.json"
        save_sweep(sweep, str(path))
        document = json.loads(path.read_text())
        for point in document["points"]:
            assert "diagnostics" not in point


class TestTimeseriesExport:
    def test_rows_cover_all_samples(self, observed_sweep):
        sweep, _ = observed_sweep
        rows = timeseries_to_rows(sweep)
        expected = sum(
            len(r.diagnostics["timeseries"]["series"]["time"])
            for r in sweep.results.values()
        )
        assert len(rows) == expected
        assert set(rows[0]) == set(TIMESERIES_COLUMNS)
        assert {row["algorithm"] for row in rows} == {"blocking"}
        assert {row["mpl"] for row in rows} == {2, 5}

    def test_write_csv(self, observed_sweep, tmp_path):
        sweep, _ = observed_sweep
        path = tmp_path / "ts.csv"
        count = write_timeseries_csv(sweep, str(path))
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == count == len(timeseries_to_rows(sweep))
        assert list(rows[0]) == list(TIMESERIES_COLUMNS)

    def test_file_like_destination(self, observed_sweep):
        sweep, _ = observed_sweep
        buffer = io.StringIO()
        count = write_timeseries_csv(sweep, buffer)
        assert count > 0
        assert buffer.getvalue().startswith(",".join(TIMESERIES_COLUMNS))

    def test_list_of_sweeps(self, observed_sweep):
        sweep, _ = observed_sweep
        plain = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2])
        buffer = io.StringIO()
        count = write_timeseries_csv([plain, sweep, sweep], buffer)
        rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        assert len(rows) == count == 2 * len(timeseries_to_rows(sweep))

    def test_plain_sweep_exports_nothing(self):
        sweep = run_sweep(tiny_config(), run=TINY_RUN, mpls=[2])
        assert timeseries_to_rows(sweep) == []


class TestConflictRatioTable:
    def test_table_contents(self, observed_sweep):
        sweep, _ = observed_sweep
        table = conflict_ratio_table(sweep)
        assert "blocks/commit" in table
        assert "restarts/commit" in table
        assert "blocking" in table
        for result in sweep.results.values():
            totals = result.totals
            ratio = totals["blocks"] / totals["commits"]
            assert f"{ratio:.2f}" in table

    def test_table_rides_in_sweep_report(self, observed_sweep):
        sweep, _ = observed_sweep
        report = sweep_report(sweep, with_plots=False)
        assert "blocks/commit" in report

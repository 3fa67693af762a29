"""Tests for Student-t quantiles and confidence intervals."""

import math
import os
import subprocess
import sys
import textwrap

import pytest
from scipy.stats import t as scipy_t

import repro
from repro.stats import ConfidenceInterval, t_quantile
from repro.stats import confidence as confidence_module
from repro.stats.confidence import _T_TABLE, interval_from_samples

LEVELS = [0.90, 0.95, 0.99]


def hide_scipy(monkeypatch):
    """Make scipy unimportable in this process and reset the quantile
    loader so it resolves again."""
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.stats", None)
    confidence_module._student_t.cache_clear()


@pytest.fixture
def without_scipy(monkeypatch):
    """scipy hidden for the test, the loader reset again afterwards."""
    hide_scipy(monkeypatch)
    yield
    confidence_module._student_t.cache_clear()


class TestTQuantile:
    @pytest.mark.parametrize("confidence", LEVELS)
    @pytest.mark.parametrize("df", [*range(1, 31), 49, 99, 100, 199, 500])
    def test_matches_scipy(self, confidence, df):
        expected = float(scipy_t.ppf(0.5 + confidence / 2.0, df))
        assert t_quantile(confidence, df) == expected

    def test_table_is_scipy_exact(self):
        # Every embedded entry, the df=inf row included, is scipy's float.
        for confidence, rows in _T_TABLE.items():
            for df, value in rows.items():
                expected = float(scipy_t.ppf(0.5 + confidence / 2.0, df))
                assert value == expected, (confidence, df)

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            t_quantile(1.5, 10)
        with pytest.raises(ValueError):
            t_quantile(0.0, 10)

    def test_rejects_bad_df(self):
        with pytest.raises(ValueError):
            t_quantile(0.9, 0)


class TestTableFallback:
    """The quantile paths taken when scipy is not importable."""

    @pytest.mark.parametrize("confidence", LEVELS)
    def test_tabulated_row_is_exact(self, without_scipy, confidence):
        assert confidence_module._student_t() is None
        assert t_quantile(confidence, 10) == _T_TABLE[confidence][10]

    def test_tabulated_pairs_same_without_scipy(self, monkeypatch):
        assert confidence_module._student_t() is scipy_t
        pairs = [(c, df) for c, rows in _T_TABLE.items() for df in rows]
        present = [t_quantile(c, df) for c, df in pairs]
        hide_scipy(monkeypatch)
        try:
            assert confidence_module._student_t() is None
            hidden = [t_quantile(c, df) for c, df in pairs]
        finally:
            confidence_module._student_t.cache_clear()
        assert hidden == present

    @pytest.mark.parametrize("confidence", LEVELS)
    def test_interpolates_in_df_between_rows(self, without_scipy, confidence):
        table = _T_TABLE[confidence]
        expected = table[30] + (35 - 30) / (40 - 30) * (table[40] - table[30])
        assert t_quantile(confidence, 35) == expected
        exact = float(scipy_t.ppf(0.5 + confidence / 2.0, 35))
        assert expected == pytest.approx(exact, abs=5e-3)

    @pytest.mark.parametrize("confidence", LEVELS)
    def test_interpolates_in_inverse_df_above_120(
        self, without_scipy, confidence
    ):
        table = _T_TABLE[confidence]
        frac = (1 / 120 - 1 / 500) / (1 / 120)
        expected = table[120] + frac * (table[math.inf] - table[120])
        assert t_quantile(confidence, 500) == expected
        exact = float(scipy_t.ppf(0.5 + confidence / 2.0, 500))
        assert expected == pytest.approx(exact, abs=5e-3)

    def test_untabulated_confidence_rejected(self, without_scipy):
        with pytest.raises(ValueError, match="without scipy"):
            t_quantile(0.80, 10)


#: Run in a fresh interpreter: imports, an exploration, a direct model
#: run, a batch-means run with its interval, a checkpointed sweep with
#: progress lines and a report of the reloaded checkpoint must leave
#: scipy and numpy unimported (their quantiles are tabulated); an
#: untabulated quantile (df 49) imports scipy.
HYGIENE_SCRIPT = textwrap.dedent("""
    import os
    import sys
    import tempfile

    import repro
    import repro.experiments.cli
    from repro.analytic.explore import explore, smoke_space
    from repro.core import RunConfig, SimulationParameters, run_simulation
    from repro.core.engine import SystemModel
    from repro.experiments import (
        QUICK_RUN, experiment_configs, load_sweep, run_sweep, sweep_report,
    )
    from repro.stats import t_quantile

    def heavy():
        return sorted({"scipy", "numpy"} & set(sys.modules))

    explore(smoke_space())
    params = SimulationParameters(
        db_size=200, min_size=4, max_size=8, write_prob=0.25,
        num_terms=10, mpl=5, ext_think_time=0.5, obj_io=0.010,
        obj_cpu=0.005, num_cpus=1, num_disks=2,
    )
    SystemModel(params, "blocking", seed=7).run_until(1.0)
    print("before", heavy())
    run = RunConfig(batches=3, batch_time=2.0, warmup_batches=0, seed=7)
    result = run_simulation(params, "blocking", run)
    print("describe", "±" in result.describe(), heavy())
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.ckpt.jsonl")
        run_sweep(
            experiment_configs()["exp1_low_conflict_finite"],
            run=QUICK_RUN.with_changes(batches=4, batch_time=2.0),
            mpls=[5], algorithms=["blocking"], checkpoint=path,
            progress=lines.append,
        )
        print("sweep", any("±" in line for line in lines), heavy())
        report = sweep_report(load_sweep(path), with_plots=False)
        print("report", "±" in report, heavy())
    t_quantile(0.90, 49)
    print("untabulated", "scipy" in sys.modules)
""")


class TestScipyLoadsOnlyForAnUntabulatedQuantile:
    def test_intervals_sweeps_and_reports_never_import_scipy(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        child = subprocess.run(
            [sys.executable, "-c", HYGIENE_SCRIPT], env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert child.stdout.splitlines() == [
            "before []", "describe True []", "sweep True []",
            "report True []", "untabulated True",
        ]


class TestConfidenceInterval:
    def test_bounds(self):
        ci = ConfidenceInterval(mean=10.0, half_width=2.0, confidence=0.9, n=20)
        assert ci.low == 8.0
        assert ci.high == 12.0
        assert ci.low <= 9.0 <= ci.high
        assert not ci.low <= 12.5 <= ci.high
        assert ci.relative_half_width == pytest.approx(0.2)

    def test_zero_mean_relative_width(self):
        ci = ConfidenceInterval(mean=0.0, half_width=1.0, confidence=0.9, n=5)
        assert ci.relative_half_width == math.inf
        exact = ConfidenceInterval(mean=0.0, half_width=0.0, confidence=0.9, n=5)
        assert exact.relative_half_width == 0.0

    def test_str_shows_level(self):
        ci = ConfidenceInterval(mean=1.0, half_width=0.1, confidence=0.9, n=20)
        assert "90%" in str(ci)


class TestIntervalFromSamples:
    def test_single_sample_infinite_width(self):
        ci = interval_from_samples([4.0])
        assert ci.mean == 4.0
        assert ci.half_width == math.inf

    def test_identical_samples_zero_width(self):
        ci = interval_from_samples([2.0] * 10)
        assert ci.mean == 2.0
        assert ci.half_width == 0.0

    def test_known_case(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        ci = interval_from_samples(samples, confidence=0.95)
        # mean 3, sample std sqrt(2.5), se = sqrt(0.5), t_{4,0.975}=2.776
        assert ci.mean == pytest.approx(3.0)
        assert ci.half_width == pytest.approx(2.776 * math.sqrt(0.5), rel=1e-3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            interval_from_samples([])

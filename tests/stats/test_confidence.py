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


@pytest.fixture
def without_scipy(monkeypatch):
    """scipy made unimportable in this process, the quantile loader reset
    on both sides so it resolves again."""
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.stats", None)
    confidence_module._student_t.cache_clear()
    yield
    confidence_module._student_t.cache_clear()


class TestTQuantile:
    @pytest.mark.parametrize("confidence", LEVELS)
    @pytest.mark.parametrize("df", [*range(1, 31), 49, 99, 100, 199, 500])
    def test_matches_scipy(self, confidence, df):
        expected = float(scipy_t.ppf(0.5 + confidence / 2.0, df))
        assert t_quantile(confidence, df) == expected

    def test_table_fallback_close_to_scipy(self):
        # Validate the embedded table itself (used when scipy is absent).
        for confidence, rows in _T_TABLE.items():
            for df, value in rows.items():
                if df is math.inf:
                    continue
                expected = float(scipy_t.ppf(0.5 + confidence / 2.0, df))
                assert value == pytest.approx(expected, abs=5e-3)

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

    @pytest.mark.parametrize("confidence", LEVELS)
    def test_interpolates_in_df_between_rows(self, without_scipy, confidence):
        table = _T_TABLE[confidence]
        expected = table[15] + (19 - 15) / (20 - 15) * (table[20] - table[15])
        assert t_quantile(confidence, 19) == expected
        exact = float(scipy_t.ppf(0.5 + confidence / 2.0, 19))
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
#: run and a batch-means run must leave scipy and numpy unimported; the
#: first interval (``describe`` prints one) imports scipy.
HYGIENE_SCRIPT = textwrap.dedent("""
    import sys

    import repro
    import repro.experiments.cli
    from repro.analytic.explore import explore, smoke_space
    from repro.core import RunConfig, SimulationParameters, run_simulation
    from repro.core.engine import SystemModel

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
    print("run", heavy())
    print("describe", "±" in result.describe())
    print("after", "scipy" in sys.modules)
""")


class TestScipyLoadsAtTheFirstInterval:
    def test_only_an_interval_imports_scipy(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        child = subprocess.run(
            [sys.executable, "-c", HYGIENE_SCRIPT], env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert child.stdout.splitlines() == [
            "before []", "run []", "describe True", "after True",
        ]


class TestConfidenceInterval:
    def test_bounds(self):
        ci = ConfidenceInterval(mean=10.0, half_width=2.0, confidence=0.9, n=20)
        assert ci.low == 8.0
        assert ci.high == 12.0
        assert ci.contains(9.0)
        assert not ci.contains(12.5)
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

"""Every registry entry — paper Figures 3-21 and the named findings —
regenerated at its pinned run and checked.

One case per key of the claim registry
(:func:`repro.experiments.figures.registry_keys`). Each case builds its
entry through :meth:`~repro.experiments.figures.FigureBuilder.reproduce`
— the same call ``repro-experiments --figure KEY`` makes — writes the
table text to ``benchmarks/results/`` (``figureNN.txt`` or
``<finding>.txt``), and fails on any claim or operational-bounds
failure. The checked-in tables are the pin: after a run,
``git diff --exit-code -- benchmarks/results`` shows every number that
moved.

Run:  PYTHONPATH=src python -m pytest -q benchmarks/bench_figures.py
"""

import os

import pytest

from repro.experiments.figures import FigureBuilder, registry_keys, table_name

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def builder():
    """One builder for every entry: figures of one experiment share a
    sweep, and Figure 11's claim reads Figure 8 from it."""
    return FigureBuilder(workers=2)


@pytest.mark.parametrize("key", registry_keys())
def test_figure(builder, key):
    reproduction = builder.reproduce(key)
    with open(os.path.join(RESULTS_DIR, table_name(key)), "w") as f:
        f.write(reproduction.text)
    assert not reproduction.failures, "\n".join(reproduction.failures)

"""Every paper figure (3-21), regenerated at its pinned run and checked.

One case per entry of the figure registry
(:data:`repro.experiments.figures.FIGURES`). Each case builds its figure
through :meth:`~repro.experiments.figures.FigureBuilder.reproduce` — the
same call ``repro-experiments --figure N`` makes — writes the table text
to ``benchmarks/results/figureNN.txt``, and fails on any claim or
operational-bounds failure. The checked-in tables are the pin: after a
run, ``git diff --exit-code -- benchmarks/results`` shows every number
that moved.

Run:  PYTHONPATH=src python -m pytest -q benchmarks/bench_figures.py
"""

import os

import pytest

from repro.experiments.figures import FIGURES, FigureBuilder

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def builder():
    """One builder for every figure: figures of one experiment share a
    sweep, and Figure 11's claim reads Figure 8 from it."""
    return FigureBuilder(workers=2)


@pytest.mark.parametrize("number", sorted(FIGURES))
def test_figure(builder, number):
    reproduction = builder.reproduce(number)
    path = os.path.join(RESULTS_DIR, f"figure{number:02d}.txt")
    with open(path, "w") as f:
        f.write(reproduction.text)
    assert not reproduction.failures, "\n".join(reproduction.failures)

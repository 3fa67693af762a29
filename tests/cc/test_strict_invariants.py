"""Strict-invariant coverage for the non-paper algorithms.

The paper's three algorithms run under strict checking throughout the
observability suite; the six extensions get the same audit here — one
contended sweep point each, full conservation/commit-point/resource
and serial-replay checking, zero tolerated violations. ``noop`` is the
negative control: it must fail serializability. High contention (small
database, large transactions, many writers) maximizes the blocking/
restart/wound/version traffic each algorithm's bookkeeping must
survive.
"""

import pytest

from repro.cc import PAPER_ALGORITHMS, algorithm_names
from repro.core.params import RunConfig, SimulationParameters
from repro.core.simulation import run_simulation
from repro.obs import InvariantViolationError

#: The extensions: every registered algorithm the paper doesn't study.
NON_PAPER_ALGORITHMS = sorted(
    set(algorithm_names()) - set(PAPER_ALGORITHMS)
)

#: Harsh contention: 8-object transactions over 60 objects, half
#: writers, mpl 10 — conflicts on nearly every attempt.
CONTENDED = SimulationParameters(
    db_size=60, min_size=2, max_size=8, write_prob=0.5,
    num_terms=20, mpl=10, ext_think_time=0.2,
    obj_io=0.01, obj_cpu=0.005, num_cpus=1, num_disks=2,
)
RUN = RunConfig(batches=3, batch_time=5.0, warmup_batches=1, seed=4242)


class TestNonPaperAlgorithmsStrict:
    def test_covers_the_six_extensions(self):
        assert NON_PAPER_ALGORITHMS == [
            "basic_to", "mvto", "noop", "static_locking",
            "wait_die", "wound_wait",
        ]

    @pytest.mark.parametrize(
        "algorithm", [a for a in NON_PAPER_ALGORITHMS if a != "noop"]
    )
    def test_strict_contended_point(self, algorithm):
        result = run_simulation(
            CONTENDED, algorithm=algorithm, run=RUN, invariants="strict",
        )
        report = result.diagnostics["invariants"]
        assert report["mode"] == "strict"
        assert report["violations"] == []
        assert report["events_checked"] > 0
        assert result.totals["commits"] > 0
        # Half the transactions write, so committed writer-reader pairs
        # abound: a replay that checked no reads is switched off.
        assert report["serializability"]["reads"] > 0

    def test_noop_is_the_negative_control(self):
        # No concurrency control at all: the serial replay must catch
        # a stale read, which strict mode raises at once.
        with pytest.raises(InvariantViolationError) as excinfo:
            run_simulation(
                CONTENDED, algorithm="noop", run=RUN, invariants="strict",
            )
        assert excinfo.value.violation.invariant == "serializability"

"""trace playback: parsing, determinism, feedback re-entry, invariants."""

import json

import pytest

from repro.core import (
    RunConfig,
    SimulationParameters,
    SystemModel,
    run_simulation,
)
from repro.obs import InvariantChecker
from repro.obs.events import TX_SUBMIT
from repro.obs.subscribers import Subscriber
from repro.workloads import (
    TraceSource,
    create_workload_model,
    load_workload_trace,
    save_workload_trace,
    trace_from_history,
    trace_record,
)
from tests.core.test_engine import CommitLog

RUN = RunConfig(batches=3, batch_time=10.0, warmup_batches=0, seed=61)


def trace_params(path, **spec):
    options = {"path": str(path)}
    options.update(spec)
    return SimulationParameters(
        db_size=200, min_size=1, max_size=8, write_prob=0.25,
        num_terms=1, mpl=10, obj_io=0.010, obj_cpu=0.005,
        num_cpus=1, num_disks=2,
        workload_model="trace", workload_spec=options,
    )


def write_trace(path, records):
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return str(path)


RECORDS = [
    trace_record((1, 2, 3), (2,)),
    trace_record((4, 5)),
    trace_record((1, 6), (1, 6)),
]


class SubmitLog(Subscriber):
    kinds = (TX_SUBMIT,)

    def __init__(self):
        self.rows = []  # (time, read_set, write_set, reentry_of)

    def on_event(self, time, kind, fields):
        tx = fields["tx"]
        self.rows.append((time, tx.read_set, tx.write_set, tx.reentry_of))


class TestParsing:
    def test_round_trip(self, tmp_path):
        records = [
            (0.5, (1, 2, 3), frozenset({2}), "small"),
            (1.0, (7,), frozenset(), None),
            (None, (4, 5), frozenset({4, 5}), "large"),
        ]
        path = tmp_path / "trace.jsonl"
        save_workload_trace(str(path), records)
        assert load_workload_trace(str(path)) == records

    def test_rejects_empty_reads(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", [{"reads": []}])
        with pytest.raises(ValueError, match="empty read set"):
            load_workload_trace(path)

    def test_rejects_duplicate_reads(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", [{"reads": [1, 1]}])
        with pytest.raises(ValueError, match="duplicate"):
            load_workload_trace(path)

    def test_rejects_writes_outside_reads(self, tmp_path):
        path = write_trace(
            tmp_path / "t.jsonl", [{"reads": [1], "writes": [2]}]
        )
        with pytest.raises(ValueError, match="subset"):
            load_workload_trace(path)

    def test_rejects_decreasing_arrival_times(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", [
            {"reads": [1], "at": 2.0},
            {"reads": [2], "at": 1.0},
        ])
        with pytest.raises(ValueError, match="nondecreasing"):
            load_workload_trace(path)

    def test_rejects_invalid_json_with_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"reads": [1]}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            load_workload_trace(str(path))

    def test_bad_record_reports_line(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", [
            {"reads": [1]}, {"reads": [2, 2]},
        ])
        with pytest.raises(ValueError, match="t.jsonl:2: duplicate"):
            load_workload_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"reads": [1], "writes": []}\n\n{"reads": [2]}\n'
        )
        assert len(load_workload_trace(str(path))) == 2

    def test_in_memory_records_round_trip_through_a_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_workload_trace(str(path), RECORDS)
        assert load_workload_trace(str(path)) == RECORDS
        tx = TraceSource(load_workload_trace(str(path)), cycle=True) \
            .new_transaction(0)
        assert tx.read_set == (1, 2, 3)
        assert tx.write_set == frozenset({2})

    def test_rejects_empty_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no records"):
            load_workload_trace(str(path))


class TestSource:
    def test_deals_in_order(self):
        source = TraceSource(RECORDS, cycle=True)
        tx1 = source.new_transaction(0)
        tx2 = source.new_transaction(0)
        assert tx1.read_set == (1, 2, 3)
        assert tx1.write_set == frozenset({2})
        assert tx2.read_set == (4, 5)
        assert source.generated == 2

    def test_cycles_when_configured(self):
        source = TraceSource(RECORDS, cycle=True)
        for _ in range(3):
            source.new_transaction(0)
        again = source.new_transaction(0)
        assert again.read_set == (1, 2, 3)
        assert again.id == 4  # ids keep counting

    def test_non_cycling_source_ends_with_the_trace(self):
        source = TraceSource(RECORDS, cycle=False)
        for _ in range(2):
            source.new_transaction(0)
        assert not source.exhausted
        source.new_transaction(0)
        assert source.exhausted

    def test_in_memory_records_share_the_file_validation(self):
        with pytest.raises(ValueError, match="no records"):
            TraceSource([], cycle=True)
        with pytest.raises(ValueError, match="empty read set"):
            trace_record(())
        with pytest.raises(ValueError, match="subset"):
            trace_record((1, 2), (3,))
        with pytest.raises(ValueError, match="duplicate"):
            trace_record((1, 1))


class TestValidation:
    def test_path_is_required(self, tmp_path):
        params = SimulationParameters(
            db_size=200, min_size=1, max_size=8,
            workload_model="trace",
        )
        with pytest.raises(ValueError, match="path"):
            create_workload_model(params)

    def test_feedback_prob_below_one(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", [{"reads": [1]}])
        with pytest.raises(ValueError, match="feedback_prob"):
            create_workload_model(
                trace_params(path, feedback_prob=1.0)
            )

    def test_missing_file_fails_at_construction(self, tmp_path):
        with pytest.raises(OSError):
            create_workload_model(trace_params(tmp_path / "nope.jsonl"))


class TestPlayback:
    def test_replays_sets_and_times_exactly(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", [
            {"reads": [3, 4], "writes": [4], "at": 0.25},
            {"reads": [9], "at": 1.5},
            {"reads": [1, 2, 5], "writes": [1, 5], "at": 1.5},
        ])
        log = SubmitLog()
        model = SystemModel(trace_params(path), "blocking", seed=5,
                            subscribers=(log,))
        model.run_until(10.0)
        assert [(t, r, set(w)) for t, r, w, _ in log.rows] == [
            (0.25, (3, 4), {4}),
            (1.5, (9,), set()),
            (1.5, (1, 2, 5), {1, 5}),
        ]
        # Finite trace, no cycling: playback stops at the end.
        assert model.workload.exhausted

    def test_records_without_times_arrive_on_the_rate_grid(
            self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", [
            {"reads": [1]}, {"reads": [2]}, {"reads": [3]},
        ])
        log = SubmitLog()
        model = SystemModel(trace_params(path, rate=4.0), "blocking",
                            seed=5, subscribers=(log,))
        model.run_until(10.0)
        assert [t for t, _, _, _ in log.rows] == [0.25, 0.5, 0.75]

    def test_cycling_replays_the_trace_forever(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", [
            {"reads": [1]}, {"reads": [2]},
        ])
        result = run_simulation(
            trace_params(path, rate=5.0, cycle=True), "blocking",
            run=RUN,
        )
        assert result.totals["commits"] > 2
        assert result.totals["open_system"]["trace_records"] == 2

    def test_playback_is_deterministic(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", [
            {"reads": [1, 2], "writes": [2]}, {"reads": [3]},
        ])
        params = trace_params(path, rate=5.0, cycle=True,
                              feedback_prob=0.3, feedback_delay=0.5)
        first = run_simulation(params, "optimistic", run=RUN)
        second = run_simulation(params, "optimistic", run=RUN)
        assert first.totals == second.totals


class TestFeedback:
    def test_reentries_happen_and_are_flow_balanced(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", [
            {"reads": [i + 1, i + 50]} for i in range(40)
        ])
        params = trace_params(path, rate=10.0, cycle=True,
                              feedback_prob=0.4, feedback_delay=0.2)
        # strict invariants: the checker's flow-balance rule audits
        # every re-entry against completions as the run progresses.
        result = run_simulation(params, "blocking", run=RUN,
                                invariants="strict")
        open_totals = result.totals["open_system"]
        assert open_totals["reentries"] > 0
        assert open_totals["feedback_prob"] == 0.4
        # Re-entries are fresh transactions: ids keep counting up, and
        # each one records its parent.
        assert result.totals["commits"] >= open_totals["reentries"]

    def test_reentry_transactions_carry_their_parent(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", [
            {"reads": [1]}, {"reads": [2]},
        ])
        params = trace_params(path, rate=20.0, cycle=True,
                              feedback_prob=0.5, feedback_delay=0.0)
        log = SubmitLog()
        model = SystemModel(params, "blocking", seed=5,
                            subscribers=(log,))
        model.run_until(30.0)
        reentries = [row for row in log.rows if row[3] is not None]
        assert reentries  # p=0.5 over dozens of completions
        firsts = [row for row in log.rows if row[3] is None]
        assert len(firsts) + len(reentries) == len(log.rows)

    def test_zero_feedback_means_no_reentries(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", [
            {"reads": [1]}, {"reads": [2]},
        ])
        result = run_simulation(
            trace_params(path, rate=5.0, cycle=True), "blocking",
            run=RUN,
        )
        assert result.totals["open_system"]["reentries"] == 0


class TestEngineIntegration:
    def params(self, path=None):
        """Closed terminals, or playback of the trace at ``path``."""
        params = SimulationParameters(
            db_size=50, min_size=1, max_size=10, write_prob=0.5,
            num_terms=8, mpl=6, ext_think_time=0.1,
            obj_io=0.005, obj_cpu=0.002, num_cpus=None, num_disks=None,
        )
        if path is None:
            return params
        return params.with_changes(
            workload_model="trace",
            workload_spec={"path": str(path), "rate": 10.0, "cycle": True},
        )

    def test_model_runs_on_a_saved_trace(self, tmp_path):
        records = [
            trace_record(range(start, start + 4),
                         (start,) if start % 2 == 0 else ())
            for start in range(0, 40, 4)
        ]
        path = tmp_path / "trace.jsonl"
        save_workload_trace(str(path), records)
        committed = CommitLog()
        checker = InvariantChecker(mode="strict")
        model = SystemModel(
            self.params(path), "blocking", seed=3,
            subscribers=(committed, checker),
        )
        model.run_until(20.0)
        assert model.metrics.commits.total > 50
        # Committed read sets all come from the trace.
        trace_reads = {reads for _, reads, _, _ in records}
        for tx in committed.transactions:
            assert tx.read_set in trace_reads
        report = checker.report()
        assert report["violations"] == []
        assert report["serializability"]["reads"] > 0

    def test_replaying_a_history_under_another_algorithm(self, tmp_path):
        committed = CommitLog()
        source = SystemModel(
            self.params(), "blocking", seed=5, subscribers=(committed,)
        )
        source.run_until(15.0)
        records = trace_from_history(committed.transactions)
        assert records
        path = tmp_path / "history.jsonl"
        save_workload_trace(str(path), records)
        replayed = CommitLog()
        checker = InvariantChecker(mode="strict")
        replay = SystemModel(
            self.params(path), "mvto", seed=5,
            subscribers=(replayed, checker),
        )
        replay.run_until(15.0)
        assert replay.metrics.commits.total > 0
        # Every replayed read set is one the blocking run committed.
        history_reads = {reads for _, reads, _, _ in records}
        for tx in replayed.transactions:
            assert tx.read_set in history_reads
        report = checker.report()
        assert report["violations"] == []
        assert report["serializability"]["reads"] > 0

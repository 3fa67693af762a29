"""Tests for the JsonlSink subscriber and read_jsonl loader."""

import io
import json
from collections import Counter

import pytest

from repro.core import SystemModel
from repro.des import Environment
from repro.obs import InstrumentationBus, JsonlSink, read_jsonl

from tests.obs.test_subscribers import faulted_params, small_params


class TestRoundTrip:
    def test_model_run_round_trips_through_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path), kinds=("submit", "commit", "restart"))
        try:
            model = SystemModel(small_params(), "blocking", seed=5,
                                subscribers=(sink,))
            model.run_until(10.0)
        finally:
            sink.close()

        events = read_jsonl(str(path))
        assert len(events) == sink.events_written > 0
        assert {e["kind"] for e in events} <= {"submit", "commit", "restart"}
        commits = [e for e in events if e["kind"] == "commit"]
        assert len(commits) == model.metrics.commits.total
        for e in events:
            # Transactions must be flattened to plain ids.
            assert isinstance(e["tx"], int)
            assert isinstance(e["time"], float)
        times = [e["time"] for e in events]
        assert times == sorted(times)

    def test_kinds_none_subscribes_everything(self, tmp_path):
        path = tmp_path / "all.jsonl"
        with JsonlSink(str(path)) as sink:
            model = SystemModel(small_params(), "blocking", seed=5,
                                subscribers=(sink,))
            model.run_until(2.0)
        kinds = {e["kind"] for e in read_jsonl(str(path))}
        # Unrestricted sinks turn the optional fast-path kinds on.
        assert "cc_grant" in kinds
        assert "resource_busy" in kinds
        assert "commit_point" in kinds


#: Keys of every line of each formatted kind (beyond time and kind).
LIFECYCLE_LAYOUT = {
    "submit": {"tx", "attempt", "terminal", "reads", "writes"},
    "resubmit": {"tx", "attempt"},
    "admit": {"tx", "attempt"},
    "block": {"tx", "attempt"},
    "restart": {"tx", "attempt", "reason"},
    "commit_point": {"tx", "attempt", "writes"},
    "commit": {"tx", "attempt", "response"},
    "cc_grant": {"tx", "obj", "op"},
}


class TestReadJsonl:
    def test_file_object_is_read_from_its_current_position(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.on_event(1.0, "commit", {"tx": 1})
        position = buffer.tell()
        sink.on_event(2.0, "restart", {"tx": 2, "reason": "deadlock"})
        buffer.write("\n")
        buffer.seek(position)
        assert read_jsonl(buffer) == [
            {"time": 2.0, "kind": "restart", "tx": 2, "reason": "deadlock"},
        ]

    def test_path_and_file_object_agree(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(str(path)) as sink:
            model = SystemModel(small_params(), "blocking", seed=5,
                                subscribers=(sink,))
            model.run_until(2.0)
        with open(path) as f:
            assert read_jsonl(f) == read_jsonl(str(path))


class TestTraceLayout:
    """The one trace line layout, on an unfiltered fixed-seed run."""

    @pytest.fixture(scope="class")
    def traced(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        model = SystemModel(small_params(), "blocking", seed=9,
                            subscribers=(sink,))
        model.run_until(20.0)
        sink.close()
        buffer.seek(0)
        events = read_jsonl(buffer)
        return model, events, Counter(e["kind"] for e in events)

    def test_lifecycle_field_layouts(self, traced):
        model, events, counts = traced
        for kind, keys in LIFECYCLE_LAYOUT.items():
            assert counts[kind] > 0, kind
            for event in events:
                if event["kind"] == kind:
                    assert set(event) == {"time", "kind"} | keys, kind
                    assert isinstance(event["tx"], int)

    def test_lifecycle_field_values(self, traced):
        model, events, counts = traced
        submit = next(e for e in events if e["kind"] == "submit")
        assert submit["attempt"] == 0
        assert submit["reads"] >= submit["writes"] >= 0
        commit = next(e for e in events if e["kind"] == "commit")
        assert commit["attempt"] >= 1
        assert commit["response"] > 0.0
        restart = next(e for e in events if e["kind"] == "restart")
        assert restart["reason"] == "deadlock"

    def test_counts_match_metrics(self, traced):
        model, events, counts = traced
        assert counts["commit"] == model.metrics.commits.total
        assert counts["block"] == model.metrics.blocks.total
        assert counts["restart"] == model.metrics.restarts.total
        assert counts["commit_point"] == model.metrics.commits.total

    def test_fault_and_submit_counts_match_the_stream(self):
        # The injector and the engine count without reading the stream;
        # the stream is a second derivation of the same counts.
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        model = SystemModel(faulted_params(), "blocking", seed=9,
                            subscribers=(sink,))
        model.run_until(20.0)
        sink.close()
        buffer.seek(0)
        events = read_jsonl(buffer)
        counts = Counter(e["kind"] for e in events)
        injector = model.fault_injector
        assert counts["disk_fail"] == injector.disk_failures > 0
        assert counts["cpu_degrade"] == injector.cpu_degradations > 0
        assert counts["access_fault"] == injector.access_faults > 0
        downtime = degraded = 0.0
        for event in events:
            if event["kind"] == "disk_repair":
                downtime += event["downtime"]
            elif event["kind"] == "cpu_restore":
                degraded += event["duration"]
        assert downtime == injector.disk_downtime > 0.0
        assert degraded == injector.cpu_degraded_time > 0.0
        assert counts["submit"] == model.metrics.submissions.total

    def test_restart_reasons_match_the_stream(self, traced):
        model, events, counts = traced
        reasons = Counter(
            e["reason"] for e in events if e["kind"] == "restart"
        )
        assert reasons == model.metrics.restart_reasons

    def test_resource_events_pair_up_to_the_busy_servers(self, traced):
        model, events, counts = traced
        physical = model.physical
        assert counts["resource_busy"] - counts["resource_idle"] == (
            physical.cpu_tracker.busy_now + physical.disk_tracker.busy_now
        )

    def test_timeline_is_causally_ordered(self, traced):
        model, events, counts = traced
        tx = next(e["tx"] for e in events if e["kind"] == "commit")
        life = [
            e for e in events
            if e.get("tx") == tx and e["kind"] in LIFECYCLE_LAYOUT
        ]
        assert life[0]["kind"] == "submit"
        assert life[-1]["kind"] == "commit"
        times = [e["time"] for e in life]
        assert times == sorted(times)

    def test_kind_filter_suppresses_emission(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer, kinds={"restart", "commit"})
        model = SystemModel(small_params(), "blocking", seed=9,
                            subscribers=(sink,))
        model.run_until(10.0)
        buffer.seek(0)
        assert {e["kind"] for e in read_jsonl(buffer)} <= {
            "restart", "commit",
        }
        # Subscribing only to those kinds keeps the optional fast-path
        # emissions off entirely.
        assert not model.bus.wants_commit_point
        assert not model.bus.wants_resource
        assert not model.bus.wants_cc


class TestDestinations:
    def test_path_destination_is_owned_and_closed(self, tmp_path):
        path = tmp_path / "owned.jsonl"
        with JsonlSink(str(path)) as sink:
            assert sink.path == str(path)
            sink.on_event(1.0, "commit", {"tx": 1})
        # close() ran via __exit__; the file handle must be closed.
        assert sink._file.closed
        assert read_jsonl(str(path)) == [
            {"time": 1.0, "kind": "commit", "tx": 1}
        ]

    def test_file_like_destination_is_not_closed(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer, kinds=("commit",))
        sink.on_event(2.0, "commit", {"tx": 7})
        sink.close()
        assert not buffer.closed
        assert json.loads(buffer.getvalue()) == {
            "time": 2.0, "kind": "commit", "tx": 7,
        }

    def test_non_json_values_fall_back_to_repr(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.on_event(0.0, "custom", {"payload": {1, 2}})
        record = json.loads(buffer.getvalue())
        assert record["payload"] == repr({1, 2})


class TestEventCounting:
    def test_events_written_tracks_dispatch(self):
        env = Environment()
        bus = InstrumentationBus(env)
        buffer = io.StringIO()
        sink = bus.attach(JsonlSink(buffer, kinds=("commit",)))
        bus.emit("commit", tx=1)
        bus.emit("restart", tx=2, reason="deadlock")  # filtered out
        bus.emit("commit", tx=3)
        assert sink.events_written == 2

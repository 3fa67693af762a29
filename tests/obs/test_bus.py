"""Tests for the InstrumentationBus dispatch machinery."""

import pytest

from repro.des import Environment
from repro.obs import InstrumentationBus, Subscriber
from repro.obs.events import (
    ALL_KINDS,
    BUFFER_KINDS,
    CC_GRANT,
    RESOURCE_BUSY,
    TX_COMMIT_POINT,
)


class Recording(Subscriber):
    """Collects (time, kind, fields) tuples for assertions."""

    def __init__(self, kinds=None, name=""):
        self.kinds = kinds
        self.name = name
        self.seen = []

    def on_event(self, time, kind, fields):
        self.seen.append((time, kind, dict(fields)))


class TestDispatch:
    def test_emit_without_subscribers_is_noop(self):
        bus = InstrumentationBus(Environment())
        bus.emit("commit", tx=1)  # must not raise

    def test_emit_reaches_subscribed_kind_only(self):
        bus = InstrumentationBus(Environment())
        sub = bus.attach(Recording(kinds=("commit",)))
        bus.emit("commit", tx=1)
        bus.emit("restart", tx=2, reason="deadlock")
        assert [(k, f) for _, k, f in sub.seen] == [("commit", {"tx": 1})]

    def test_handlers_receive_environment_time(self):
        env = Environment()
        bus = InstrumentationBus(env)
        sub = bus.attach(Recording(kinds=("tick",)))

        def proc(env):
            yield env.timeout(3.5)
            bus.emit("tick")

        env.process(proc(env))
        env.run()
        assert sub.seen == [(3.5, "tick", {})]

    def test_dispatch_order_is_attach_order(self):
        bus = InstrumentationBus(Environment())
        order = []

        class Ordered(Subscriber):
            kinds = ("commit",)

            def __init__(self, tag):
                self.tag = tag

            def on_event(self, time, kind, fields):
                order.append(self.tag)

        bus.attach(Ordered("first"))
        bus.attach(Ordered("second"))
        bus.emit("commit", tx=1)
        assert order == ["first", "second"]

    def test_default_kinds_cover_the_whole_taxonomy(self):
        bus = InstrumentationBus(Environment())
        sub = bus.attach(Recording())  # kinds=None -> ALL_KINDS
        for kind in sorted(ALL_KINDS):
            bus.emit(kind)
        assert {k for _, k, _ in sub.seen} == set(ALL_KINDS)


class TestSubscription:
    def test_attach_returns_subscriber(self):
        bus = InstrumentationBus(Environment())
        sub = Recording(kinds=("commit",))
        assert bus.attach(sub) is sub

    def test_on_attach_hook_receives_bus_and_model(self):
        bus = InstrumentationBus(Environment())
        calls = []

        class Hooked(Recording):
            def on_attach(self, bus, model):
                calls.append((bus, model))

        marker = object()
        bus.attach(Hooked(kinds=()), model=marker)
        assert calls == [(bus, marker)]

    def test_detach_all_stops_delivery(self):
        bus = InstrumentationBus(Environment())
        sub = bus.attach(Recording(kinds=("commit",)))
        bus.emit("commit", tx=1)
        bus.detach_all()
        bus.emit("commit", tx=2)
        assert len(sub.seen) == 1
        assert bus.subscribers == []


class TestFastPathFlags:
    def test_flags_start_false(self):
        bus = InstrumentationBus(Environment())
        assert not bus.wants_commit_point
        assert not bus.wants_resource
        assert not bus.wants_cc
        assert not bus.wants("commit")

    def test_flags_track_subscriptions(self):
        bus = InstrumentationBus(Environment())
        bus.attach(
            Recording(kinds=(TX_COMMIT_POINT, RESOURCE_BUSY, CC_GRANT))
        )
        assert bus.wants_commit_point
        assert bus.wants_resource
        assert bus.wants_cc
        assert bus.wants(TX_COMMIT_POINT)
        bus.detach_all()
        assert not bus.wants_commit_point
        assert not bus.wants_resource
        assert not bus.wants_cc

    @pytest.mark.parametrize("kind", BUFFER_KINDS)
    def test_any_buffer_kind_raises_wants_buffer(self, kind):
        bus = InstrumentationBus(Environment())
        assert not bus.wants_buffer
        bus.attach(Recording(kinds=(kind,)))
        assert bus.wants_buffer
        assert not bus.wants_msg
        bus.detach_all()
        assert not bus.wants_buffer

    def test_lifecycle_subscriber_leaves_optional_kinds_cold(self):
        # The default engine configuration: a metrics-style subscriber
        # listening to lifecycle kinds must not force the high-volume
        # optional emissions on.
        bus = InstrumentationBus(Environment())
        bus.attach(Recording(kinds=("submit", "admit", "commit")))
        assert not bus.wants_commit_point
        assert not bus.wants_resource
        assert not bus.wants_cc
        assert not bus.wants_buffer

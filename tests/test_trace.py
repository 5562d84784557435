"""Structured protocol tracing."""

import pytest

from repro.core.stats import StackStats
from repro.core.trace import (
    KIND_BROADCAST,
    KIND_CREATE,
    KIND_DECIDE,
    KIND_DELIVER,
    KIND_DESTROY,
    KIND_DROP,
    KIND_OOC,
    KIND_RECEIVE,
    KIND_ROUND,
    KIND_SEND,
    TraceEvent,
    Tracer,
)

from util import InstantNet


def traced_net(n=4, **tracer_kwargs):
    net = InstantNet(n)
    tracers = []
    for stack in net.stacks:
        tracer = Tracer(**tracer_kwargs)
        stack.stats.subscribe(tracer)
        tracers.append(tracer)
    return net, tracers


class TestTracer:
    def test_emit_and_select(self):
        tracer = Tracer()
        tracer(0, KIND_SEND, ("a",), {"dest": 1})
        tracer(1, KIND_RECEIVE, ("a",), {"src": 0})
        assert len(tracer) == 2
        sends = list(tracer.select(kind=KIND_SEND))
        assert len(sends) == 1
        assert sends[0].detail["dest"] == 1

    def test_select_by_process_and_prefix(self):
        tracer = Tracer()
        tracer(0, KIND_SEND, ("a", 1), {})
        tracer(0, KIND_SEND, ("b", 1), {})
        tracer(2, KIND_SEND, ("a", 2), {})
        assert len(list(tracer.select(process=0))) == 2
        assert len(list(tracer.select(path_prefix=("a",)))) == 2
        assert len(list(tracer.select(process=0, path_prefix=("a",)))) == 1

    def test_capacity_ring(self):
        tracer = Tracer(capacity=3)
        for i in range(10):
            tracer(0, KIND_SEND, (i,), {})
        assert len(tracer) == 3
        assert tracer.emitted == 10
        assert [e.path for e in tracer.events()] == [(7,), (8,), (9,)]

    def test_kind_filter_at_emit(self):
        """A subscription's kinds filter at the record point: the
        unsubscribed kind is never built, let alone handed over."""
        stats = StackStats(0)
        tracer = Tracer()
        stats.subscribe(tracer, {KIND_DECIDE})
        stats.record_send(10, ("a",), dest=1, mtype=0)
        stats.record_decision("bc", 1, ("b",), value=1)
        assert [(e.kind, e.path) for e in tracer.events()] == [(KIND_DECIDE, ("b",))]
        assert tracer.emitted == 1

    def test_render_line(self):
        event = TraceEvent(time=0.001234, process=2, kind=KIND_DECIDE, path=("bc",),
                           detail={"value": 1})
        line = event.render()
        assert "p2" in line
        assert "decide" in line
        assert "value=1" in line

    def test_clear(self):
        tracer = Tracer()
        tracer(0, KIND_SEND, (), {})
        tracer.clear()
        assert len(tracer) == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestSelectSnapshot:
    def test_emit_during_select_iteration(self):
        # Regression: select() used to walk the live deque lazily, so a
        # consumer that traced anything mid-iteration hit
        # "RuntimeError: deque mutated during iteration".
        tracer = Tracer()
        for i in range(5):
            tracer(0, KIND_SEND, (i,), {})
        seen = []
        for event in tracer.select(kind=KIND_SEND):
            tracer(0, KIND_RECEIVE, event.path, {"echoed": True})
            seen.append(event.path)
        assert seen == [(i,) for i in range(5)]
        assert len(list(tracer.select(kind=KIND_RECEIVE))) == 5

    def test_clear_during_select_iteration(self):
        tracer = Tracer()
        tracer(0, KIND_SEND, (), {})
        tracer(0, KIND_SEND, (), {})
        count = 0
        for _ in tracer.select():
            tracer.clear()
            count += 1
        assert count == 2

    def test_emit_during_select_at_capacity(self):
        # The nastiest variant: the ring is full, so every emit also
        # evicts the oldest event while we iterate.
        tracer = Tracer(capacity=4)
        for i in range(4):
            tracer(0, KIND_SEND, (i,), {})
        walked = 0
        for event in tracer.select():
            tracer(1, KIND_RECEIVE, event.path, {})
            walked += 1
        assert walked == 4


class TestDroppedEvents:
    def test_counts_ring_overflow(self):
        tracer = Tracer(capacity=3)
        assert tracer.dropped_events == 0
        for i in range(10):
            tracer(0, KIND_SEND, (i,), {})
        assert tracer.dropped_events == 7

    def test_clear_counts_as_dropped(self):
        tracer = Tracer()
        tracer(0, KIND_SEND, (), {})
        tracer.clear()
        assert tracer.dropped_events == 1


class TestJsonlExport:
    def test_meta_record_stamps_drop_accounting(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer(0, KIND_SEND, (i,), {})
        records = tracer.to_records()
        meta = records[0]
        assert meta["record"] == "meta"
        assert meta["emitted"] == 5
        assert meta["retained"] == 2
        assert meta["dropped_events"] == 3
        assert meta["capacity"] == 2
        assert len(records) == 3

    def test_event_records_are_json_safe(self):
        import json

        tracer = Tracer()
        tracer(
            0,
            KIND_DECIDE,
            ("bc", 7),
            {"digest": b"\xde\xad", "values": (1, b"\x01"), "exotic": {"not", "json"}},
        )
        records = tracer.to_records()
        text = json.dumps(records)  # must not raise
        event = records[1]
        assert event["path"] == ["bc", 7]
        assert event["detail"]["digest"] == "dead"
        assert event["detail"]["values"] == [1, "01"]
        assert isinstance(event["detail"]["exotic"], str)
        assert json.loads(text)[1] == event

    def test_write_jsonl_roundtrip(self):
        import io
        import json

        tracer = Tracer()
        tracer(3, KIND_SEND, ("a",), {"dest": 1})
        out = io.StringIO()
        tracer.write_jsonl(out)
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        assert lines[0]["record"] == "meta"
        assert lines[1] == {
            "record": "event",
            "time": 0.0,
            "process": 3,
            "kind": KIND_SEND,
            "path": ["a"],
            "detail": {"dest": 1},
        }


class TestStackIntegration:
    def test_consensus_emits_lifecycle_events(self):
        net, tracers = traced_net()
        for stack in net.stacks:
            stack.create("bc", ("b",))
        for stack in net.stacks:
            stack.instance_at(("b",)).propose(1)
        net.run()
        tracer = tracers[0]
        kinds = {event.kind for event in tracer.events()}
        assert KIND_CREATE in kinds
        assert KIND_SEND in kinds
        assert KIND_RECEIVE in kinds
        assert KIND_BROADCAST in kinds
        assert KIND_DELIVER in kinds
        assert KIND_ROUND in kinds
        decides = list(tracer.select(kind=KIND_DECIDE))
        assert len(decides) == 1
        assert decides[0].detail == {"value": 1, "round": 1}

    def test_destroy_emits(self):
        net, tracers = traced_net()
        instance = net.stacks[0].create("rb", ("x",), sender=0)
        instance.destroy()
        assert len(list(tracers[0].select(kind=KIND_DESTROY))) == 1

    def test_ooc_and_drop_events(self):
        from repro.core.wire import encode_frame

        net, tracers = traced_net()
        net.stacks[0].receive(1, b"garbage")
        net.stacks[0].receive(1, encode_frame(("nowhere",), 0, None))
        assert len(list(tracers[0].select(kind=KIND_DROP))) == 1
        assert len(list(tracers[0].select(kind=KIND_OOC))) == 1

    def test_tracing_off_by_default_and_free(self):
        net = InstantNet(4)
        assert net.stacks[0].stats.subscriptions == []
        for stack in net.stacks:
            stack.create("bc", ("b",))
        for stack in net.stacks:
            stack.instance_at(("b",)).propose(0)
        net.run()  # must simply work with the inert tracer
        assert net.stacks[0].instance_at(("b",)).decision == 0

"""The stack: control-block chaining, demux, OOC handling, factories."""

from collections import Counter

import pytest

from repro.core.config import GroupConfig
from repro.core.errors import ConfigurationError, ProtocolViolationError, WireFormatError
from repro.core.mbuf import Mbuf
from repro.core.stack import ORPHAN_STALE, ControlBlock, ProtocolFactory, Stack
from repro.core.trace import KIND_DROP, Tracer
from repro.core.wire import encode_batch, encode_frame

from util import InstantNet


class Recorder(ControlBlock):
    """Minimal protocol: records inputs, supports child creation."""

    protocol = "rec"

    def __init__(self, stack, path, parent=None, purpose=None):
        super().__init__(stack, path, parent, purpose)
        self.inputs = []
        self.orphans = []
        self.child_events = []
        self.create_orphans = False

    def input(self, mbuf):
        self.inputs.append(mbuf)

    def accept_orphan(self, mbuf):
        self.orphans.append(mbuf)
        if self.create_orphans and len(mbuf.path) == len(self.path) + 1:
            self.make_child("rec", (mbuf.path[-1],))
            return True
        return False

    def child_event(self, child, event):
        self.child_events.append((child.path, event))


def recorder_factory():
    return ProtocolFactory({"rec": Recorder})


def make_stack(outbox=None):
    sent = []
    stack = Stack(
        GroupConfig(4),
        0,
        outbox=outbox or (lambda dest, data: sent.append((dest, data))),
        factory=recorder_factory(),
    )
    stack._sent = sent  # test-only handle
    return stack


class TestRouting:
    def test_frame_reaches_instance(self):
        stack = make_stack()
        instance = stack.create("rec", ("a",))
        stack.receive(1, encode_frame(("a",), 0, b"x"))
        assert len(instance.inputs) == 1
        assert instance.inputs[0].src == 1
        assert instance.inputs[0].payload == b"x"

    def test_unknown_path_goes_ooc_and_drains_on_create(self):
        stack = make_stack()
        stack.receive(1, encode_frame(("late",), 0, b"x"))
        assert stack.ooc_pending == 1
        instance = stack.create("rec", ("late",))
        assert stack.ooc_pending == 0
        assert len(instance.inputs) == 1

    def test_descendant_frames_drain_on_ancestor_create(self):
        class CreatingRecorder(Recorder):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.create_orphans = True

        stack = make_stack()
        stack.factory = ProtocolFactory({"rec": CreatingRecorder})
        stack.receive(1, encode_frame(("root", 7), 0, b"x"))
        root = stack.create("rec", ("root",))
        # Registration of ("root",) re-routes the parked frame once the
        # constructor finishes; accept_orphan then creates the child.
        child = stack.instance_at(("root", 7))
        assert child is not None
        assert len(child.inputs) == 1

    def test_accept_orphan_decline_parks_frame(self):
        stack = make_stack()
        root = stack.create("rec", ("root",))
        stack.receive(1, encode_frame(("root", 3), 0, b"x"))
        assert len(root.orphans) == 1
        assert stack.ooc_pending == 1

    def test_deepest_ancestor_wins(self):
        stack = make_stack()
        outer = stack.create("rec", ("a",))
        inner = outer.make_child("rec", ("b",))
        stack.receive(1, encode_frame(("a", "b", "c"), 0, None))
        assert len(inner.orphans) == 1
        assert outer.orphans == []

    def test_malformed_frame_dropped_and_counted(self):
        stack = make_stack()
        stack.receive(1, b"\xff\xfe garbage")
        assert stack.stats.dropped["malformed-frame"] == 1

    def test_protocol_violation_dropped_and_counted(self):
        stack = make_stack()

        class Violator(Recorder):
            def input(self, mbuf):
                raise ProtocolViolationError("nope")

        stack.factory = ProtocolFactory({"rec": Violator})
        stack.create("rec", ("v",))
        stack.receive(1, encode_frame(("v",), 0, None))
        assert stack.stats.dropped["protocol-violation"] == 1

    def test_receive_records_stats(self):
        stack = make_stack()
        frame = encode_frame(("x",), 0, b"abc")
        stack.receive(2, frame)
        assert stack.stats.frames_received == 1
        assert stack.stats.bytes_received == len(frame)

    def test_every_drop_is_counted_and_traced_under_one_reason(self):
        class Faulty(Recorder):
            def input(self, mbuf):
                error = {"violate": ProtocolViolationError, "garble": WireFormatError}
                raise error[self.path[0]]("rejected")

            def accept_orphan(self, mbuf):
                if mbuf.path[-1] == "stale":
                    return ORPHAN_STALE
                raise ProtocolViolationError("no such child")

        stack = Stack(
            GroupConfig(4),
            0,
            outbox=lambda dest, data: None,
            factory=ProtocolFactory({"rec": Faulty}),
        )
        stack.stats.subscribe(tracer := Tracer())
        stack.create("rec", ("violate",))
        stack.create("rec", ("garble",))
        frame = encode_frame(("x",), 0, None)
        for unit in (
            b"\xff\xfe garbage",  # malformed-frame, at parse
            encode_batch([frame, frame])[:-1],  # malformed-batch
            encode_batch([encode_batch([frame, frame])]),  # malformed-batch, nested
            encode_frame(("violate",), 0, None),  # protocol-violation, at input
            encode_frame(("garble",), 0, None),  # malformed-frame, at input
            encode_frame(("violate", "child"), 0, None),  # protocol-violation, at demux
            encode_frame(("violate", "stale"), 0, None),  # stale-frame
        ):
            stack.receive(1, unit)
        traced = Counter(event.detail["reason"] for event in tracer.select(kind=KIND_DROP))
        assert traced == stack.stats.dropped
        assert traced == {
            "malformed-frame": 2,
            "malformed-batch": 2,
            "protocol-violation": 2,
            "stale-frame": 1,
        }


class TestSending:
    def test_send_frame_invokes_outbox(self):
        stack = make_stack()
        stack.send_frame(3, ("p",), 1, b"hi")
        assert len(stack._sent) == 1
        dest, data = stack._sent[0]
        assert dest == 3

    def test_send_all_reaches_everyone_including_self(self):
        stack = make_stack()
        instance = stack.create("rec", ("p",))
        instance.send_all(0, b"x")
        assert [dest for dest, _ in stack._sent] == [0, 1, 2, 3]

    def test_send_stats(self):
        stack = make_stack()
        stack.send_frame(1, ("p",), 0, b"hello")
        assert stack.stats.frames_sent == 1
        assert stack.stats.bytes_sent > 0


class TestInstanceTree:
    def test_duplicate_path_rejected(self):
        stack = make_stack()
        stack.create("rec", ("dup",))
        with pytest.raises(ConfigurationError):
            stack.create("rec", ("dup",))

    def test_destroy_removes_subtree(self):
        stack = make_stack()
        root = stack.create("rec", ("r",))
        child = root.make_child("rec", ("c",))
        grandchild = child.make_child("rec", ("g",))
        assert stack.live_instances == 3
        root.destroy()
        assert stack.live_instances == 0
        assert grandchild.destroyed

    def test_destroy_purges_subtree_ooc(self):
        stack = make_stack()
        root = stack.create("rec", ("r",))
        stack.receive(1, encode_frame(("r", "future"), 0, None))
        assert stack.ooc_pending == 1
        root.destroy()
        assert stack.ooc_pending == 0
        assert stack.stats.ooc_purged == 1

    def test_destroy_idempotent(self):
        stack = make_stack()
        root = stack.create("rec", ("r",))
        root.destroy()
        root.destroy()
        assert stack.live_instances == 0

    def test_child_of_destroyed_parent_rejected(self):
        from repro.core.errors import InstanceDestroyedError

        stack = make_stack()
        root = stack.create("rec", ("r",))
        root.destroy()
        with pytest.raises(InstanceDestroyedError):
            root.make_child("rec", ("c",))

    def test_purpose_inherited(self):
        stack = make_stack()
        root = stack.create("rec", ("r",), purpose="agreement")
        child = root.make_child("rec", ("c",))
        assert child.purpose == "agreement"

    def test_purpose_overridable_at_creation(self):
        stack = make_stack()
        root = stack.create("rec", ("r",), purpose="agreement")
        child = root.make_child("rec", ("c",), purpose="payload")
        assert child.purpose == "payload"

    def test_deliver_routes_to_parent(self):
        stack = make_stack()
        root = stack.create("rec", ("r",))
        child = root.make_child("rec", ("c",))
        child.deliver("event")
        assert root.child_events == [(("r", "c"), "event")]

    def test_deliver_routes_to_callback_at_root(self):
        stack = make_stack()
        root = stack.create("rec", ("r",))
        events = []
        root.on_deliver = lambda inst, e: events.append(e)
        root.deliver("up")
        assert events == ["up"]

    def test_deliver_after_destroy_is_dropped(self):
        stack = make_stack()
        root = stack.create("rec", ("r",))
        events = []
        root.on_deliver = lambda inst, e: events.append(e)
        root.destroy()
        root.deliver("late")
        assert events == []


class TestFactory:
    def test_default_factory_has_all_layers(self):
        factory = ProtocolFactory.default()
        assert factory.kinds() == ["ab", "bc", "ckpt", "eb", "mvc", "rb", "vc"]

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            ProtocolFactory({}).resolve("nope")

    def test_override_returns_new_factory(self):
        base = ProtocolFactory({"rec": Recorder})

        class Other(Recorder):
            pass

        derived = base.override("rec", Other)
        assert base.resolve("rec") is Recorder
        assert derived.resolve("rec") is Other

    def test_invalid_process_id(self):
        with pytest.raises(ConfigurationError):
            Stack(GroupConfig(4), 4, outbox=lambda d, b: None)


class TestEndToEndRouting:
    def test_instantnet_carries_frames(self):
        net = InstantNet(4)
        for stack in net.stacks:
            stack.create("rb", ("m",), sender=2)
        got = []
        for pid, stack in enumerate(net.stacks):
            stack.instance_at(("m",)).on_deliver = (
                lambda _i, v, pid=pid: got.append((pid, v))
            )
        net.stacks[2].instance_at(("m",)).broadcast(b"payload")
        net.run()
        assert sorted(got) == [(pid, b"payload") for pid in range(4)]

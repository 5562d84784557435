"""Bracha reliable broadcast: unit-level message handling and end-to-end
properties, including sender equivocation."""

import pytest

from repro.core.config import GroupConfig
from repro.core.errors import ProtocolViolationError
from repro.core.mbuf import Mbuf
from repro.core.reliable_broadcast import MSG_ECHO, MSG_INIT, MSG_READY
from repro.core.stack import ProtocolFactory, Stack
from repro.core.wire import encode_frame

from util import InstantNet, ShuffleNet


def lone_stack(pid=0):
    """A stack whose outbox records frames instead of sending them."""
    sent = []
    stack = Stack(GroupConfig(4), pid, outbox=lambda d, b: sent.append((d, b)))
    return stack, sent


def feed(stack, path, mtype, payload, src):
    stack.receive(src, encode_frame(path, mtype, payload))


def sent_mtypes(sent):
    from repro.core.wire import decode_frame_ex

    return [decode_frame_ex(data)[1] for _, data in sent]


class TestUnitBehaviour:
    def test_init_triggers_echo_to_all(self):
        stack, sent = lone_stack(pid=1)
        stack.create("rb", ("b",), sender=0)
        feed(stack, ("b",), MSG_INIT, b"m", src=0)
        assert sent_mtypes(sent) == [MSG_ECHO] * 4

    def test_init_from_wrong_sender_rejected(self):
        stack, sent = lone_stack(pid=1)
        stack.create("rb", ("b",), sender=0)
        feed(stack, ("b",), MSG_INIT, b"m", src=2)
        assert sent == []
        assert stack.stats.dropped["protocol-violation"] == 1

    def test_duplicate_init_ignored(self):
        stack, sent = lone_stack(pid=1)
        stack.create("rb", ("b",), sender=0)
        feed(stack, ("b",), MSG_INIT, b"m", src=0)
        feed(stack, ("b",), MSG_INIT, b"m2", src=0)
        assert sent_mtypes(sent) == [MSG_ECHO] * 4

    def test_echo_quorum_triggers_ready(self):
        stack, sent = lone_stack(pid=1)
        stack.create("rb", ("b",), sender=0)
        for src in (0, 2, 3):  # floor((4+1)/2)+1 = 3 echoes
            feed(stack, ("b",), MSG_ECHO, b"m", src=src)
        assert sent_mtypes(sent) == [MSG_READY] * 4

    def test_two_echoes_not_enough(self):
        stack, sent = lone_stack(pid=1)
        stack.create("rb", ("b",), sender=0)
        for src in (0, 2):
            feed(stack, ("b",), MSG_ECHO, b"m", src=src)
        assert sent == []

    def test_ready_amplification(self):
        """f+1 READYs substitute for the echo quorum."""
        stack, sent = lone_stack(pid=1)
        stack.create("rb", ("b",), sender=0)
        for src in (2, 3):
            feed(stack, ("b",), MSG_READY, b"m", src=src)
        assert sent_mtypes(sent) == [MSG_READY] * 4

    def test_delivery_needs_2f_plus_1_readys(self):
        stack, sent = lone_stack(pid=1)
        rb = stack.create("rb", ("b",), sender=0)
        delivered = []
        rb.on_deliver = lambda _i, v: delivered.append(v)
        for src in (0, 2):
            feed(stack, ("b",), MSG_READY, b"m", src=src)
        assert delivered == []
        feed(stack, ("b",), MSG_READY, b"m", src=3)
        assert delivered == [b"m"]

    def test_delivery_exactly_once(self):
        stack, _ = lone_stack(pid=1)
        rb = stack.create("rb", ("b",), sender=0)
        delivered = []
        rb.on_deliver = lambda _i, v: delivered.append(v)
        for src in (0, 1, 2, 3):
            feed(stack, ("b",), MSG_READY, b"m", src=src)
        assert delivered == [b"m"]

    def test_echo_votes_counted_once_per_source(self):
        stack, sent = lone_stack(pid=1)
        stack.create("rb", ("b",), sender=0)
        for _ in range(5):
            feed(stack, ("b",), MSG_ECHO, b"m", src=2)
        assert sent == []  # one source, however chatty, is one vote

    def test_equivocating_echoes_split_by_digest(self):
        """Votes for different payloads never combine."""
        stack, sent = lone_stack(pid=1)
        stack.create("rb", ("b",), sender=0)
        feed(stack, ("b",), MSG_ECHO, b"m1", src=0)
        feed(stack, ("b",), MSG_ECHO, b"m2", src=2)
        feed(stack, ("b",), MSG_ECHO, b"m3", src=3)
        assert sent == []

    def test_unknown_mtype_rejected(self):
        stack, _ = lone_stack(pid=1)
        stack.create("rb", ("b",), sender=0)
        feed(stack, ("b",), 7, b"m", src=0)
        assert stack.stats.dropped["protocol-violation"] == 1

    def test_broadcast_by_non_sender_rejected(self):
        stack, _ = lone_stack(pid=1)
        rb = stack.create("rb", ("b",), sender=0)
        with pytest.raises(ProtocolViolationError):
            rb.broadcast(b"not mine")

    def test_invalid_sender_id_rejected(self):
        stack, _ = lone_stack()
        with pytest.raises(ValueError):
            stack.create("rb", ("b",), sender=9)

    def test_broadcast_counts_in_stats(self):
        stack, _ = lone_stack(pid=0)
        rb = stack.create("rb", ("b",), sender=0, purpose="payload")
        rb.broadcast(b"m")
        assert stack.stats.broadcasts[("rb", "payload")] == 1


class TestEndToEnd:
    def test_all_correct_deliver(self):
        net = InstantNet(4)
        got = {}
        for pid, stack in enumerate(net.stacks):
            rb = stack.create("rb", ("x",), sender=1)
            rb.on_deliver = lambda _i, v, pid=pid: got.setdefault(pid, v)
        net.stacks[1].instance_at(("x",)).broadcast(b"hello")
        net.run()
        assert got == {pid: b"hello" for pid in range(4)}

    def test_delivery_with_one_crashed_receiver(self):
        net = InstantNet(4, crashed={3})
        got = {}
        for pid in range(3):
            rb = net.stacks[pid].create("rb", ("x",), sender=0)
            rb.on_deliver = lambda _i, v, pid=pid: got.setdefault(pid, v)
        net.stacks[0].instance_at(("x",)).broadcast(b"m")
        net.run()
        assert got == {0: b"m", 1: b"m", 2: b"m"}

    def test_crashed_sender_no_delivery(self):
        net = InstantNet(4)
        got = {}
        for pid in range(4):
            rb = net.stacks[pid].create("rb", ("x",), sender=0)
            rb.on_deliver = lambda _i, v, pid=pid: got.setdefault(pid, v)
        net.crash(0)
        net.stacks[0].instance_at(("x",)).broadcast(b"m")
        net.run()
        assert got == {}

    def test_equivocating_sender_agreement(self):
        """A corrupt sender sends INIT m1 to half, INIT m2 to the rest:
        correct processes either all deliver the same message or none."""
        for seed in range(8):
            net = ShuffleNet(4, seed=seed)
            got = {}
            for pid in range(1, 4):
                rb = net.stacks[pid].create("rb", ("x",), sender=0)
                rb.on_deliver = lambda _i, v, pid=pid: got.setdefault(pid, v)
            # Byzantine p0 bypasses its own instance and sends raw frames.
            for dest, payload in [(1, b"m1"), (2, b"m1"), (3, b"m2")]:
                net.stacks[0].send_frame(dest, ("x",), MSG_INIT, payload)
            net.run()
            values = set(got.values())
            assert len(values) <= 1, f"seed {seed}: divergent deliveries {got}"

    def test_any_schedule_delivers(self):
        """Totality holds on randomized schedules."""
        for seed in range(10):
            net = ShuffleNet(4, seed=seed)
            got = {}
            for pid, stack in enumerate(net.stacks):
                rb = stack.create("rb", ("x",), sender=2)
                rb.on_deliver = lambda _i, v, pid=pid: got.setdefault(pid, v)
            net.stacks[2].instance_at(("x",)).broadcast(b"p")
            net.run()
            assert got == {pid: b"p" for pid in range(4)}, f"seed {seed}"

    def test_larger_group_n7(self):
        net = InstantNet(7)
        got = {}
        for pid, stack in enumerate(net.stacks):
            rb = stack.create("rb", ("x",), sender=0)
            rb.on_deliver = lambda _i, v, pid=pid: got.setdefault(pid, v)
        net.stacks[0].instance_at(("x",)).broadcast(b"seven")
        net.run()
        assert len(got) == 7

    def test_two_crashed_in_n7(self):
        net = InstantNet(7, crashed={5, 6})
        got = {}
        for pid in range(5):
            rb = net.stacks[pid].create("rb", ("x",), sender=0)
            rb.on_deliver = lambda _i, v, pid=pid: got.setdefault(pid, v)
        net.stacks[0].instance_at(("x",)).broadcast(b"m")
        net.run()
        assert len(got) == 5

"""Bracha reliable broadcast: unit-level message handling and end-to-end
properties, including sender equivocation."""

import pytest

from repro.baselines import with_paper_rb
from repro.core.config import GroupConfig
from repro.core.errors import ProtocolViolationError
from repro.core.mbuf import Mbuf
from repro.core.reliable_broadcast import MSG_ECHO, MSG_INIT, MSG_PAYLOAD, MSG_READY
from repro.core.stack import ProtocolFactory, Stack
from repro.core.wire import decode_frame_ex, encode_frame, encode_value
from repro.crypto.hashing import HASH_LEN, hash_bytes

from util import InstantNet, ShuffleNet


def lone_stack(pid=0):
    """A stack whose outbox records frames instead of sending them."""
    sent = []
    stack = Stack(GroupConfig(4), pid, outbox=lambda d, b: sent.append((d, b)))
    return stack, sent


def feed(stack, path, mtype, payload, src):
    stack.receive(src, encode_frame(path, mtype, payload))


def digest(payload):
    """What an ECHO or READY for *payload* carries: H of its canonical
    encoding."""
    return hash_bytes(encode_value(payload))


def sent_mtypes(sent):
    return [decode_frame_ex(data)[1] for _, data in sent]


def sent_payloads(sent):
    return [decode_frame_ex(data)[2] for _, data in sent]


#: Every shape an ECHO or READY region may take that is not a digest.
MALFORMED_VOTES = pytest.mark.parametrize(
    "payload",
    [
        b"m",
        bytes(HASH_LEN - 1),
        bytes(HASH_LEN + 1),
        7,
        None,
        "x" * HASH_LEN,
        [bytes(HASH_LEN)],
    ],
    ids=["payload", "short", "long", "int", "none", "str", "list"],
)


def delivered_values(rb):
    delivered = []
    rb.on_deliver = lambda _i, v: delivered.append(v)
    return delivered


class TestUnitBehaviour:
    def test_init_triggers_echo_to_all(self):
        stack, sent = lone_stack(pid=1)
        stack.create("rb", ("b",), sender=0)
        feed(stack, ("b",), MSG_INIT, b"m", src=0)
        assert sent_mtypes(sent) == [MSG_ECHO] * 4

    def test_echo_carries_the_digest(self):
        stack, sent = lone_stack(pid=1)
        stack.create("rb", ("b",), sender=0)
        feed(stack, ("b",), MSG_INIT, b"m" * 100, src=0)
        assert sent_payloads(sent) == [digest(b"m" * 100)] * 4

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
            feed(stack, ("b",), MSG_ECHO, digest(b"m"), src=src)
        assert sent_mtypes(sent) == [MSG_READY] * 4

    def test_two_echoes_not_enough(self):
        stack, sent = lone_stack(pid=1)
        stack.create("rb", ("b",), sender=0)
        for src in (0, 2):
            feed(stack, ("b",), MSG_ECHO, digest(b"m"), src=src)
        assert sent == []

    def test_ready_carries_the_digest(self):
        stack, sent = lone_stack(pid=1)
        stack.create("rb", ("b",), sender=0)
        for src in (0, 2, 3):
            feed(stack, ("b",), MSG_ECHO, digest(b"m" * 100), src=src)
        assert sent_payloads(sent) == [digest(b"m" * 100)] * 4

    def test_ready_amplification(self):
        """f+1 READYs substitute for the echo quorum, and need no payload."""
        stack, sent = lone_stack(pid=1)
        rb = stack.create("rb", ("b",), sender=0)
        for src in (2, 3):
            feed(stack, ("b",), MSG_READY, digest(b"m"), src=src)
        assert sent_mtypes(sent) == [MSG_READY] * 4
        assert sent_payloads(sent) == [digest(b"m")] * 4
        assert rb._raws == {}  # amplified with no payload held

    def test_delivery_needs_2f_plus_1_readys(self):
        stack, _ = lone_stack(pid=1)
        rb = stack.create("rb", ("b",), sender=0)
        delivered = delivered_values(rb)
        feed(stack, ("b",), MSG_INIT, b"m", src=0)
        for src in (0, 2):
            feed(stack, ("b",), MSG_READY, digest(b"m"), src=src)
        assert delivered == []
        feed(stack, ("b",), MSG_READY, digest(b"m"), src=3)
        assert delivered == [b"m"]

    def test_delivery_exactly_once(self):
        stack, _ = lone_stack(pid=1)
        rb = stack.create("rb", ("b",), sender=0)
        delivered = delivered_values(rb)
        feed(stack, ("b",), MSG_INIT, b"m", src=0)
        for src in (0, 1, 2, 3):
            feed(stack, ("b",), MSG_READY, digest(b"m"), src=src)
        for src in (1, 2, 3):
            feed(stack, ("b",), MSG_ECHO, digest(b"m"), src=src)
            feed(stack, ("b",), MSG_PAYLOAD, b"m", src=src)
        assert delivered == [b"m"]

    def test_ready_quorum_without_payload_does_not_deliver(self):
        stack, _ = lone_stack(pid=1)
        rb = stack.create("rb", ("b",), sender=0)
        delivered = delivered_values(rb)
        for src in (0, 2, 3):
            feed(stack, ("b",), MSG_READY, digest(b"m"), src=src)
        assert delivered == [] and not rb.delivered

    def test_later_payload_with_matching_digest_delivers_once(self):
        stack, _ = lone_stack(pid=1)
        rb = stack.create("rb", ("b",), sender=0)
        delivered = delivered_values(rb)
        for src in (0, 2, 3):
            feed(stack, ("b",), MSG_READY, digest(b"m"), src=src)
        feed(stack, ("b",), MSG_PAYLOAD, b"m", src=2)
        assert delivered == [b"m"]
        feed(stack, ("b",), MSG_PAYLOAD, b"m", src=3)
        feed(stack, ("b",), MSG_READY, digest(b"m"), src=1)
        assert delivered == [b"m"]

    def test_echo_with_another_payload_never_delivers(self):
        """An ECHO carrying a payload -- the paper's ECHO -- is malformed:
        it neither supplies the payload nor votes."""
        stack, _ = lone_stack(pid=1)
        rb = stack.create("rb", ("b",), sender=0)
        delivered = delivered_values(rb)
        for src in (0, 2, 3):
            feed(stack, ("b",), MSG_READY, digest(b"m"), src=src)
        for src in (0, 1, 2, 3):
            feed(stack, ("b",), MSG_ECHO, b"m-prime", src=src)
        assert delivered == [] and not rb.delivered
        assert rb._raws == {} and rb._echoes == {}
        assert stack.stats.dropped["protocol-violation"] == 4

    def test_payload_with_another_digest_never_delivers(self):
        stack, _ = lone_stack(pid=1)
        rb = stack.create("rb", ("b",), sender=0)
        delivered = delivered_values(rb)
        for src in (0, 2, 3):
            feed(stack, ("b",), MSG_READY, digest(b"m"), src=src)
        for src in (0, 2, 3):
            feed(stack, ("b",), MSG_PAYLOAD, b"m-prime", src=src)
        assert delivered == [] and not rb.delivered
        assert list(rb._raws) == [digest(b"m-prime")]

    def test_payload_only_holder_does_not_echo(self):
        """A PAYLOAD is a payload source, never a vote and never an INIT."""
        stack, sent = lone_stack(pid=1)
        rb = stack.create("rb", ("b",), sender=0)
        for src in (0, 2, 3):
            feed(stack, ("b",), MSG_PAYLOAD, b"m", src=src)
        assert sent == []
        assert list(rb._raws) == [digest(b"m")]
        assert rb._echoes == {} and rb._readies == {}

    def test_second_payload_from_one_source_is_not_hashed(self, monkeypatch):
        from repro.core import reliable_broadcast

        hashed = []

        def counting(*parts):
            hashed.append(parts)
            return hash_bytes(*parts)

        monkeypatch.setattr(reliable_broadcast, "hash_bytes", counting)
        stack, _ = lone_stack(pid=1)
        rb = stack.create("rb", ("b",), sender=0)
        feed(stack, ("b",), MSG_PAYLOAD, b"m", src=2)
        feed(stack, ("b",), MSG_PAYLOAD, b"other", src=2)
        assert len(hashed) == 1
        for src in (0, 2, 3):
            feed(stack, ("b",), MSG_READY, digest(b"m"), src=src)
        assert rb.delivered
        # Once delivered, a PAYLOAD from a fresh source is not hashed either.
        feed(stack, ("b",), MSG_PAYLOAD, b"m", src=3)
        assert len(hashed) == 1

    def test_delivery_pushes_to_peers_whose_echo_was_not_counted(self):
        """p0 never echoed here and p3 echoed another digest: each gets
        the payload once; p2 echoed d and p1 is this process."""
        stack, sent = lone_stack(pid=1)
        rb = stack.create("rb", ("b",), sender=0)
        feed(stack, ("b",), MSG_INIT, b"m", src=0)
        feed(stack, ("b",), MSG_ECHO, digest(b"m"), src=2)
        feed(stack, ("b",), MSG_ECHO, digest(b"m-prime"), src=3)
        for src in (0, 2):
            feed(stack, ("b",), MSG_READY, digest(b"m"), src=src)
        sent.clear()
        feed(stack, ("b",), MSG_READY, digest(b"m"), src=3)
        assert rb.delivered
        pushes = [(dest, data) for dest, data in sent if decode_frame_ex(data)[1] == MSG_PAYLOAD]
        assert sorted(dest for dest, _ in pushes) == [0, 3]
        assert sent_payloads(pushes) == [b"m", b"m"]
        # Nothing is pushed twice: later votes find the instance delivered.
        sent.clear()
        feed(stack, ("b",), MSG_READY, digest(b"m"), src=1)
        assert MSG_PAYLOAD not in sent_mtypes(sent)

    def test_init_supplies_the_payload(self):
        """The INIT is a payload source too, even before any ECHO."""
        stack, sent = lone_stack(pid=1)
        rb = stack.create("rb", ("b",), sender=0)
        delivered = delivered_values(rb)
        for src in (0, 2, 3):
            feed(stack, ("b",), MSG_READY, digest([b"m", 7]), src=src)
        feed(stack, ("b",), MSG_INIT, [b"m", 7], src=0)
        assert delivered == [[b"m", 7]]

    @MALFORMED_VOTES
    def test_malformed_ready_is_dropped_and_scored_once(self, payload):
        stack, sent = lone_stack(pid=1)
        stack.create("rb", ("b",), sender=0)
        feed(stack, ("b",), MSG_READY, payload, src=2)
        assert stack.stats.dropped["protocol-violation"] == 1
        assert stack.ledger.offenses(2) == {"protocol-violation": 1}
        # The malformed READY cast no vote: one more READY is not f+1 ...
        feed(stack, ("b",), MSG_READY, digest(b"m"), src=3)
        assert sent == []
        # ... and p2's well-formed READY still counts.
        feed(stack, ("b",), MSG_READY, digest(b"m"), src=2)
        assert sent_mtypes(sent) == [MSG_READY] * 4

    @MALFORMED_VOTES
    def test_malformed_echo_is_dropped_and_scored_once(self, payload):
        stack, sent = lone_stack(pid=1)
        stack.create("rb", ("b",), sender=0)
        feed(stack, ("b",), MSG_ECHO, payload, src=2)
        assert stack.stats.dropped["protocol-violation"] == 1
        assert stack.ledger.offenses(2) == {"protocol-violation": 1}
        # The malformed ECHO cast no vote: two more ECHOs are no quorum ...
        for src in (0, 3):
            feed(stack, ("b",), MSG_ECHO, digest(b"m"), src=src)
        assert sent == []
        # ... and p2's well-formed ECHO still counts.
        feed(stack, ("b",), MSG_ECHO, digest(b"m"), src=2)
        assert sent_mtypes(sent) == [MSG_READY] * 4

    def test_echo_votes_counted_once_per_source(self):
        stack, sent = lone_stack(pid=1)
        stack.create("rb", ("b",), sender=0)
        for _ in range(5):
            feed(stack, ("b",), MSG_ECHO, digest(b"m"), src=2)
        assert sent == []  # one source, however chatty, is one vote

    def test_equivocating_echoes_split_by_digest(self):
        """Votes for different payloads never combine."""
        stack, sent = lone_stack(pid=1)
        stack.create("rb", ("b",), sender=0)
        feed(stack, ("b",), MSG_ECHO, digest(b"m1"), src=0)
        feed(stack, ("b",), MSG_ECHO, digest(b"m2"), src=2)
        feed(stack, ("b",), MSG_ECHO, digest(b"m3"), src=3)
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

    @pytest.mark.parametrize("push", [True, False], ids=["push", "no-push"])
    def test_process_without_the_init_gets_the_payload_pushed(self, push, monkeypatch):
        """A corrupt sender INITs itself and 2f correct processes only.
        p3 never echoes, so each echoer pushes m to it at delivery;
        without the push p3 holds the READY quorum and never delivers."""
        from repro.core.reliable_broadcast import ReliableBroadcast

        if not push:
            monkeypatch.setattr(ReliableBroadcast, "_push_payload", lambda *_: None)
        for seed in range(8):
            net = ShuffleNet(4, seed=seed)
            got = {}
            for pid, stack in enumerate(net.stacks):
                rb = stack.create("rb", ("x",), sender=0)
                rb.on_deliver = lambda _i, v, pid=pid: got.setdefault(pid, v)
            for dest in (0, 1, 2):
                net.stacks[0].send_frame(dest, ("x",), MSG_INIT, b"m")
            net.run()
            expected = {pid: b"m" for pid in (range(4) if push else range(3))}
            assert got == expected, f"seed {seed}"

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


@pytest.mark.parametrize("kind", ["rb", "eb"])
def test_broadcast_encodes_its_payload_once_with_metrics_on(kind, monkeypatch):
    """The payload-size histogram and the INIT frame share one encode."""
    from repro.core import wire
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.stack_metrics import StackMetrics

    stack, sent = lone_stack()
    StackMetrics.attach(stack, MetricsRegistry())
    block = stack.create(kind, ("b",), sender=0)
    inner, active, top_level = wire._encode_into, [0], []

    def counting(out, value, depth):
        if not active[0]:
            top_level.append(value)
        active[0] += 1
        try:
            inner(out, value, depth)
        finally:
            active[0] -= 1

    monkeypatch.setattr(wire, "_encode_into", counting)
    block.broadcast([b"x" * 100, 7])
    assert len(top_level) == 1 and len(sent) == 4
    assert all(decode_frame_ex(data)[2] == [b"x" * 100, 7] for _, data in sent)



def paper_stack(pid=1):
    """:func:`lone_stack` running the figures' baseline RB."""
    sent = []
    stack = Stack(
        GroupConfig(4),
        pid,
        outbox=lambda d, b: sent.append((d, b)),
        factory=with_paper_rb(ProtocolFactory.default()),
    )
    return stack, sent


def test_paper_rb_echo_relays_the_payload_and_pushes_nothing():
    stack, sent = paper_stack()
    rb = stack.create("rb", ("b",), sender=0)
    delivered = delivered_values(rb)
    feed(stack, ("b",), MSG_INIT, b"m" * 100, src=0)
    assert sent_payloads(sent) == [b"m" * 100] * 4
    assert sent_mtypes(sent) == [MSG_ECHO] * 4
    sent.clear()
    for src in (0, 2, 3):
        feed(stack, ("b",), MSG_READY, digest(b"m" * 100), src=src)
    assert delivered == [b"m" * 100]
    assert MSG_PAYLOAD not in sent_mtypes(sent)


def test_paper_rb_takes_the_payload_from_an_echo():
    stack, _ = paper_stack()
    rb = stack.create("rb", ("b",), sender=0)
    delivered = delivered_values(rb)
    for src in (0, 2, 3):
        feed(stack, ("b",), MSG_READY, digest(b"m"), src=src)
    feed(stack, ("b",), MSG_ECHO, b"m", src=2)
    assert delivered == [b"m"]


def test_run_burst_runs_the_paper_rb(monkeypatch):
    """The figures' pin took: ``_RB_HANDLERS`` binds the base class's
    methods, so only a dispatched ECHO proves the baseline runs."""
    from repro.baselines import PaperReliableBroadcast
    from repro.eval.atomic_burst import run_burst

    echoes = []
    inner = PaperReliableBroadcast._on_payload_echo
    monkeypatch.setattr(
        PaperReliableBroadcast,
        "_on_payload_echo",
        lambda self, mbuf: (echoes.append(mbuf.src), inner(self, mbuf)),
    )
    assert run_burst(4, 10, seed=0).delivered == 4
    assert echoes


def test_init_as_a_view_delivers_like_bytes():
    """A large INIT's raw payload arrives as a read-only view of its unit
    (``frame_fastpath``): it is digested, held, pushed and decoded the
    same as owned bytes, and let go at delivery."""
    payload = [bytes(range(256)) * 160, "x", 7]
    raw = encode_value(payload)
    runs = []
    for region in (raw, memoryview(bytearray(raw)).toreadonly()):
        stack, sent = lone_stack(pid=1)
        rb = stack.create("rb", ("b",), sender=0)
        delivered = delivered_values(rb)
        rb.input(Mbuf.lazy(0, ("b",), MSG_INIT, region))
        (held,) = rb._raws.values()
        assert held is region
        for src in (0, 2, 3):
            feed(stack, ("b",), MSG_READY, digest(payload), src=src)
        assert rb._raws == {}
        runs.append((delivered, sent, rb.inspect()["value_digest"]))
    assert runs[0] == runs[1]
    delivered, sent, _ = runs[0]
    assert delivered == [payload]
    assert sent_mtypes(sent) == [MSG_ECHO] * 4 + [MSG_READY] * 4 + [MSG_PAYLOAD] * 3
    assert sent_payloads(sent)[0] == digest(payload)


class TestReleaseAtDelivery:
    """A delivered instance holds its payload once, as the decoded value:
    the raw encodings go once the push is out, and late frames neither
    bring them back nor fail."""

    def deliver_without_init(self, stack, payload):
        rb = stack.create("rb", ("b",), sender=0)
        delivered = delivered_values(rb)
        for src in (0, 2, 3):
            feed(stack, ("b",), MSG_READY, digest(payload), src=src)
        feed(stack, ("b",), MSG_PAYLOAD, payload, src=2)
        assert delivered == [payload] and rb._raws == {}
        return rb, delivered

    def test_delivered_instance_holds_no_raw_payload(self):
        stack, _ = lone_stack(pid=1)
        rb = stack.create("rb", ("b",), sender=0)
        feed(stack, ("b",), MSG_INIT, b"m" * 100, src=0)
        feed(stack, ("b",), MSG_PAYLOAD, b"m-prime", src=3)
        assert len(rb._raws) == 2
        for src in (0, 2, 3):
            feed(stack, ("b",), MSG_READY, digest(b"m" * 100), src=src)
        assert rb.delivered and rb.delivered_value == b"m" * 100
        assert rb._raws == {}

    def test_late_frames_after_delivery_are_ignored(self):
        stack, sent = lone_stack(pid=1)
        rb, delivered = self.deliver_without_init(stack, b"m")
        sent.clear()
        feed(stack, ("b",), MSG_INIT, b"m", src=0)
        feed(stack, ("b",), MSG_PAYLOAD, b"m", src=3)
        for src in (0, 2, 3):
            feed(stack, ("b",), MSG_ECHO, digest(b"m"), src=src)
        feed(stack, ("b",), MSG_READY, digest(b"m"), src=1)
        # The late INIT is still echoed, and nothing else leaves.
        assert sent_mtypes(sent) == [MSG_ECHO] * 4
        assert sent_payloads(sent) == [digest(b"m")] * 4
        assert delivered == [b"m"] and rb._raws == {}
        assert sum(stack.stats.dropped.values()) == 0

    def test_paper_rb_echoes_a_late_init_without_holding_it(self):
        stack, sent = paper_stack()
        rb, delivered = self.deliver_without_init(stack, b"m" * 100)
        sent.clear()
        feed(stack, ("b",), MSG_INIT, b"m" * 100, src=0)
        feed(stack, ("b",), MSG_ECHO, b"m" * 100, src=3)
        assert sent_payloads(sent) == [b"m" * 100] * 4
        assert delivered == [b"m" * 100] and rb._raws == {}
        assert sum(stack.stats.dropped.values()) == 0

    def test_digest_forger_payload_echo_after_delivery(self):
        """The forger's payload-carrying ECHO sends the INIT it was handed,
        so it needs no held payload, even on a delivered instance."""
        from repro.adversary.strategies import _PAYLOAD_ECHO, digest_forge_faultload

        sent = []
        factory = digest_forge_faultload(ProtocolFactory.default())
        stack = Stack(
            GroupConfig(4), 1, outbox=lambda d, b: sent.append((d, b)), factory=factory
        )
        rb, delivered = self.deliver_without_init(stack, b"m")
        type(rb).sent[(MSG_ECHO, 0)] = _PAYLOAD_ECHO  # the next ECHO carries the payload
        sent.clear()
        feed(stack, ("b",), MSG_INIT, b"m", src=0)
        assert sent_payloads(sent) == [b"m"] * 4
        assert delivered == [b"m"] and rb._raws == {}

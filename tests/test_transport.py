"""The TCP transport: framing security and live asyncio group runs."""

import asyncio
import struct

import pytest

from repro.core.config import GroupConfig
from repro.core.wire import encode_batch, encode_frame
from repro.crypto.keys import TrustedDealer
from repro.transport import tcp
from repro.transport.framing import MAC_LEN, MAX_FRAME, FrameCodec, FramingError, peek_src
from repro.transport.tcp import PeerAddress, RitasNode

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)


class TestFraming:
    def key(self):
        return b"k" * 16

    def test_roundtrip(self):
        sender = FrameCodec(self.key(), src=2)
        receiver = FrameCodec(self.key(), src=2)
        frame = sender.encode(b"payload")
        body = frame[4:]  # strip the length prefix
        assert receiver.decode(body) == (2, b"payload")

    def test_sequence_increments(self):
        sender = FrameCodec(self.key(), src=0)
        receiver = FrameCodec(self.key(), src=0)
        for i in range(5):
            src, payload = receiver.decode(sender.encode(b"%d" % i)[4:])
            assert payload == b"%d" % i

    def test_replay_rejected(self):
        sender = FrameCodec(self.key(), src=0)
        receiver = FrameCodec(self.key(), src=0)
        body = sender.encode(b"x")[4:]
        receiver.decode(body)
        with pytest.raises(FramingError, match="replay"):
            receiver.decode(body)

    def test_reorder_rejected(self):
        sender = FrameCodec(self.key(), src=0)
        receiver = FrameCodec(self.key(), src=0)
        first = sender.encode(b"1")[4:]
        second = sender.encode(b"2")[4:]
        receiver.decode(second)
        with pytest.raises(FramingError):
            receiver.decode(first)

    def test_tampered_payload_rejected(self):
        sender = FrameCodec(self.key(), src=0)
        receiver = FrameCodec(self.key(), src=0)
        body = bytearray(sender.encode(b"honest")[4:])
        body[13] ^= 0xFF
        with pytest.raises(FramingError, match="MAC"):
            receiver.decode(bytes(body))

    def test_wrong_key_rejected(self):
        sender = FrameCodec(b"a" * 16, src=0)
        receiver = FrameCodec(b"b" * 16, src=0)
        with pytest.raises(FramingError, match="MAC"):
            receiver.decode(sender.encode(b"x")[4:])

    def test_spoofed_src_rejected(self):
        """A frame authenticated under key(0) but claiming src 3."""
        sender = FrameCodec(self.key(), src=3)
        receiver = FrameCodec(self.key(), src=0)
        with pytest.raises(FramingError):
            receiver.decode(sender.encode(b"x")[4:])

    def test_truncated_frame_rejected(self):
        receiver = FrameCodec(self.key(), src=0)
        with pytest.raises(FramingError, match="short"):
            receiver.decode(b"tiny")

    def test_peek_src(self):
        sender = FrameCodec(self.key(), src=2)
        assert peek_src(sender.encode(b"x")[4:]) == 2

    def test_peek_src_truncated(self):
        with pytest.raises(FramingError):
            peek_src(b"")


@pytest.fixture
def group4():
    config = GroupConfig(4)
    dealer = TrustedDealer(4, seed=b"transport-tests")
    return config, dealer


def make_nodes(config, dealer, factory_for=None):
    # Port 0 everywhere: each node binds an ephemeral port in listen(),
    # and start_group() exchanges the real ports before connecting.
    addresses = [PeerAddress("127.0.0.1", 0) for _ in range(config.n)]
    nodes = []
    for pid in range(config.n):
        factory = factory_for(pid) if factory_for else None
        nodes.append(
            RitasNode(config, pid, addresses, dealer.keystore_for(pid), factory=factory)
        )
    return nodes


async def start_group(nodes):
    """Bind every node first, then share the bound ports and connect."""
    for node in nodes:
        await node.listen()
    addresses = [PeerAddress("127.0.0.1", node.bound_port) for node in nodes]
    for node in nodes:
        node.set_peer_addresses(addresses)
    for node in nodes:
        await node.connect()
    return addresses


class TestLiveGroup:
    def test_atomic_broadcast_total_order(self, group4):
        config, dealer = group4

        async def scenario():
            nodes = make_nodes(config, dealer)
            await start_group(nodes)
            try:
                orders = {pid: [] for pid in range(4)}
                for pid, node in enumerate(nodes):
                    ab = node.stack.create("ab", ("t",))
                    ab.on_deliver = (
                        lambda _i, d, pid=pid: orders[pid].append((d.sender, d.rbid))
                    )
                for pid, node in enumerate(nodes):
                    node.stack.instance_at(("t",)).broadcast(b"m%d" % pid)

                async def done():
                    return all(len(o) == 4 for o in orders.values())

                for _ in range(400):
                    if await done():
                        break
                    await asyncio.sleep(0.02)
                assert await done(), orders
                assert all(o == orders[0] for o in orders.values())
            finally:
                for node in nodes:
                    await node.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "kind, proposal", [("bc", 1), ("mvc", b"value"), ("vc", b"value")]
    )
    def test_consensus_decides_over_tcp(self, group4, kind, proposal):
        """Each consensus service, created on every node's stack under
        one path, decides the same value at all four nodes."""
        config, dealer = group4

        async def scenario():
            nodes = make_nodes(config, dealer)
            await start_group(nodes)
            loop = asyncio.get_running_loop()
            try:
                decided = [loop.create_future() for _ in nodes]
                instances = [node.stack.create(kind, (kind, "vote")) for node in nodes]
                for instance, future in zip(instances, decided):
                    instance.on_deliver = (
                        lambda _i, decision, future=future: future.done()
                        or future.set_result(decision)
                    )
                for instance in instances:
                    instance.propose(proposal)
                decisions = await asyncio.wait_for(asyncio.gather(*decided), timeout=20)
                assert all(d == decisions[0] for d in decisions)
                if kind == "vc":
                    assert sum(v == proposal for v in decisions[0]) >= config.n - config.f
                else:
                    assert decisions[0] == proposal
            finally:
                for node in nodes:
                    await node.close()

        asyncio.run(scenario())

    def test_rejects_unauthenticated_injection(self, group4):
        """A raw TCP client with no keys cannot get frames accepted."""
        config, dealer = group4

        async def scenario():
            nodes = make_nodes(config, dealer)
            await start_group(nodes)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", nodes[0].bound_port
                )
                # A plausible-looking but unauthenticated frame.
                body = struct.pack(">QI", 0, 1) + b"attack payload" + b"\x00" * 32
                writer.write(struct.pack(">I", len(body)) + body)
                await writer.drain()
                await asyncio.sleep(0.3)
                assert nodes[0].frames_rejected == 1
                assert nodes[0].stack.stats.frames_received == 0
                writer.close()
            finally:
                for node in nodes:
                    await node.close()

        asyncio.run(scenario())

    def test_addresses_length_checked(self, group4):
        config, dealer = group4
        with pytest.raises(ValueError):
            RitasNode(
                config,
                0,
                [PeerAddress("127.0.0.1", 1)],
                dealer.keystore_for(0),
            )


def feed(link, data):
    """Hand *data* to a buffered link protocol the way a transport does."""
    while data:
        with link.get_buffer(-1) as buffer:
            assert len(buffer), "get_buffer() returned an empty buffer"
            size = min(len(buffer), len(data))
            buffer[:size] = data[:size]
        link.buffer_updated(size)
        data = data[size:]


class _FakeTransport:
    """Stands in for an accepted connection's transport."""

    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class TestInboundParser:
    """The inbound link protocol, driven directly: every complete unit of
    a read is authenticated and delivered, in order, and any failure
    closes the link with nothing after the bad unit delivered."""

    def setup_method(self):
        config = GroupConfig(4)
        dealer = TrustedDealer(4, seed=b"parser")
        addresses = [PeerAddress("127.0.0.1", 0)] * 4
        self.node = RitasNode(config, 0, addresses, dealer.keystore_for(0))
        self.got = []
        self.charged = []
        self.node.stack.receive = lambda src, data: self.got.append((src, data))
        self.node._charge_link = self.charged.append
        self.link = tcp._InboundLink(self.node)
        self.transport = _FakeTransport()
        self.link.transport = self.transport
        # p1's outbound codec toward p0: the same pairwise key.
        self.sender = FrameCodec(dealer.keystore_for(1).key_for(0), 1)

    def units(self, count):
        return [self.sender.encode(b"\x01unit-%d" % i) for i in range(count)]

    def assert_rejected(self, charged):
        assert self.node.frames_rejected == 1
        assert self.charged == charged
        assert self.transport.closed

    def test_one_unit_fed_a_byte_at_a_time(self):
        (unit,) = self.units(1)
        for index in range(len(unit) - 1):
            feed(self.link, unit[index : index + 1])
            assert self.got == []
        feed(self.link, unit[-1:])
        assert self.got == [(1, b"\x01unit-0")]
        assert self.link.start == self.link.end
        assert not self.transport.closed

    def test_three_units_and_half_a_fourth_in_one_read(self):
        units = self.units(4)
        half = len(units[3]) // 2
        feed(self.link, b"".join(units[:3]) + units[3][:half])
        assert [data for _, data in self.got] == [b"\x01unit-%d" % i for i in range(3)]
        feed(self.link, units[3][half:])
        assert [data for _, data in self.got] == [b"\x01unit-%d" % i for i in range(4)]
        assert self.link.start == self.link.end

    def test_bad_mac_after_two_valid_units(self):
        units = self.units(4)
        units[2] = units[2][:-1] + bytes([units[2][-1] ^ 1])
        feed(self.link, b"".join(units))
        assert [data for _, data in self.got] == [b"\x01unit-0", b"\x01unit-1"]
        self.assert_rejected(charged=[1])

    def test_bad_first_unit_charges_nobody(self):
        (unit,) = self.units(1)
        feed(self.link, unit[:-1] + bytes([unit[-1] ^ 1]))
        assert self.got == []
        self.assert_rejected(charged=[])

    def test_first_unit_claiming_own_pid_charges_nobody(self):
        forged = FrameCodec(b"k" * 32, 0).encode(b"\x01x")
        feed(self.link, forged)
        assert self.got == []
        self.assert_rejected(charged=[])

    def test_replayed_seq(self):
        first, second = self.units(2)
        feed(self.link, first + second + first)
        assert len(self.got) == 2
        self.assert_rejected(charged=[1])

    @pytest.mark.parametrize("length", [MAC_LEN, MAX_FRAME + 1])
    def test_implausible_length_rejected_before_body_is_buffered(self, length):
        (unit,) = self.units(1)
        feed(self.link, unit + struct.pack(">I", length) + b"\x00" * 64)
        assert len(self.got) == 1
        assert len(self.link.buffer) == tcp._RECV_BUFFER
        self.assert_rejected(charged=[1])

    def test_implausible_length_on_a_bare_header(self):
        feed(self.link, struct.pack(">I", MAX_FRAME + 1))
        assert self.got == [] and len(self.link.buffer) == tcp._RECV_BUFFER
        self.assert_rejected(charged=[])

    def test_claimed_length_does_not_grow_the_buffer(self):
        """A bare header claiming MAX_FRAME pins no memory: the buffer
        doubles only once the bytes that arrived have filled it."""
        feed(self.link, struct.pack(">I", MAX_FRAME))
        self.link.get_buffer(-1)
        assert len(self.link.buffer) == tcp._RECV_BUFFER
        feed(self.link, bytes(tcp._RECV_BUFFER))
        assert len(self.link.buffer) == 2 * tcp._RECV_BUFFER
        assert self.got == [] and not self.transport.closed

    def test_closing_node_leaves_no_unchecked_length_behind(self):
        self.node._closed = True
        (unit,) = self.units(1)
        feed(self.link, unit + struct.pack(">I", 0xFFFFFFFF) + bytes(tcp._RECV_BUFFER))
        assert self.got == [] and self.link.start == self.link.end
        self.link.get_buffer(-1)
        assert len(self.link.buffer) == tcp._RECV_BUFFER

    def test_unit_larger_than_the_buffer_grows_it_then_shrinks(self):
        """The buffer a unit grew is handed to the stack with it: the
        payload is a read-only view of that buffer, and the link rests at
        its resting size again right after."""
        payload = b"\x01" + bytes(3 * tcp._RECV_BUFFER)
        big = self.sender.encode(payload)
        small = self.sender.encode(b"\x01small")
        feed(self.link, big[:-1])
        grown = self.link.buffer
        assert len(grown) == len(big) and self.got == []
        feed(self.link, big[-1:])
        ((src, data),) = self.got
        assert src == 1 and data == payload
        assert type(data) is memoryview and data.readonly and data.obj is grown
        assert len(self.link.buffer) == tcp._RECV_BUFFER and self.link.buffer is not grown
        assert self.link.start == self.link.end == 0
        feed(self.link, small)
        assert self.got[1] == (1, b"\x01small") and type(self.got[1][1]) is bytes
        assert len(self.link.buffer) == tcp._RECV_BUFFER

    def route_into_list(self):
        """Run the real stack's receive path, keeping every mbuf it
        builds instead of dispatching it."""
        stack = self.node.stack
        del stack.receive  # the class's receive again, not the recorder
        routed = []
        stack.route = routed.append
        return routed

    def test_a_handed_off_buffer_is_never_written_again(self):
        routed = self.route_into_list()

        def unit(fill, size):
            return self.sender.encode(encode_frame(("big",), 0, bytes([fill]) * size))

        feed(self.link, unit(1, 3 * tcp._RECV_BUFFER))
        raw = routed[0].raw_payload
        assert type(raw) is memoryview
        kept = bytes(raw)
        # Same-sized units: a reused buffer would be overwritten in place.
        for fill in (2, 3):
            feed(self.link, unit(fill, 3 * tcp._RECV_BUFFER))
        feed(self.link, unit(4, 100))
        assert [mbuf.payload[:1] for mbuf in routed] == [b"\x01", b"\x02", b"\x03", b"\x04"]
        assert bytes(raw) == kept
        assert len({id(mbuf.raw_payload.obj) for mbuf in routed[:3]}) == 3

    def test_a_small_frame_in_a_large_unit_is_copied_out(self):
        """A 33 KiB frame beside 64 KiB of others is under half the unit:
        its raw payload is owned bytes, so parking it out-of-context
        cannot keep the whole unit alive."""
        routed = self.route_into_list()
        small = encode_frame(("a",), 0, bytes(33 * 1024))
        large = encode_frame(("b",), 0, bytes(64 * 1024))
        feed(self.link, self.sender.encode(encode_batch([small, large])))
        assert [mbuf.path for mbuf in routed] == [("a",), ("b",)]
        assert type(routed[0].raw_payload) is bytes
        assert type(routed[1].raw_payload) is memoryview

class TestReceiveSeam:
    def test_patched_receive_sees_inbound_and_loopback_units(self, group4):
        """``stack.receive`` replaced after connect() (how tracing wraps
        it) sees every unit: each peer's and this process's loopback."""
        config, dealer = group4

        async def scenario():
            nodes = make_nodes(config, dealer)
            await start_group(nodes)
            seen = {pid: set() for pid in range(4)}
            try:
                for pid, node in enumerate(nodes):
                    inner = node.stack.receive

                    def receive(src, data, pid=pid, inner=inner):
                        seen[pid].add(src)
                        inner(src, data)

                    node.stack.receive = receive
                    node.stack.create("ab", ("t",))
                for pid, node in enumerate(nodes):
                    node.stack.instance_at(("t",)).broadcast(b"m%d" % pid)
                for _ in range(400):
                    if all(len(s) == 4 for s in seen.values()):
                        break
                    await asyncio.sleep(0.02)
                assert all(s == {0, 1, 2, 3} for s in seen.values()), seen
            finally:
                for node in nodes:
                    await node.close()

        asyncio.run(scenario())

"""Transport resilience: late starters, reconnection, slow peers."""

import asyncio

import pytest

from repro.core.config import GroupConfig
from repro.core.wire import decode_batch_views, decode_frame_ex, is_batch
from repro.crypto.keys import TrustedDealer
from repro.transport import framing, tcp
from repro.transport.framing import FrameCodec
from repro.transport.tcp import PeerAddress, RitasNode
from tests.util import reserve_port

pytestmark = [
    pytest.mark.usefixtures("fast_reconnect"),
    pytest.mark.filterwarnings(
        "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
    ),
]


@pytest.fixture
def group4():
    return GroupConfig(4), TrustedDealer(4, seed=b"resilience")


def make_node(config, dealer, addresses, pid):
    return RitasNode(config, pid, addresses, dealer.keystore_for(pid))


def set_schedule(monkeypatch, base_s, max_s, jitter):
    monkeypatch.setattr(tcp, "RECONNECT_BASE_S", base_s)
    monkeypatch.setattr(tcp, "RECONNECT_MAX_S", max_s)
    monkeypatch.setattr(tcp, "RECONNECT_JITTER", jitter)


async def start_staged(nodes, extra_addresses=()):
    """Bind every node on port 0, then share bound ports + connect.

    *extra_addresses* extends the map for processes not yet started
    (late starters, crashed peers)."""
    for node in nodes:
        await node.listen()
    addresses = [
        PeerAddress("127.0.0.1", node.bound_port) for node in nodes
    ] + list(extra_addresses)
    for node in nodes:
        node.set_peer_addresses(addresses)
    for node in nodes:
        await node.connect()
    return addresses


class TestResilience:
    def test_late_starting_peer_joins(self, group4):
        """Three nodes come up, start a broadcast, the fourth joins late:
        connect retries + the OOC table let it catch up."""
        config, dealer = group4

        async def scenario():
            blank = [PeerAddress("127.0.0.1", 0)] * 4
            nodes = [make_node(config, dealer, blank, pid) for pid in range(3)]
            late_port = reserve_port()
            addresses = await start_staged(
                nodes, [PeerAddress("127.0.0.1", late_port)]
            )
            got = {pid: [] for pid in range(4)}
            try:
                for pid, node in enumerate(nodes):
                    ab = node.stack.create("ab", ("t",))
                    ab.on_deliver = lambda _i, d, pid=pid: got[pid].append(d.payload)
                nodes[0].stack.instance_at(("t",)).broadcast(b"early")
                await asyncio.sleep(0.3)
                late = make_node(config, dealer, addresses, 3)
                await late.start()
                nodes.append(late)
                ab = late.stack.create("ab", ("t",))
                ab.on_deliver = lambda _i, d: got[3].append(d.payload)
                nodes[1].stack.instance_at(("t",)).broadcast(b"late")
                for _ in range(300):
                    if all(len(msgs) == 2 for msgs in got.values()):
                        break
                    await asyncio.sleep(0.02)
                assert all(msgs == got[0] for msgs in got.values()), got
                assert set(got[0]) == {b"early", b"late"}
            finally:
                for node in nodes:
                    await node.close()

        asyncio.run(scenario())

    def test_sender_queue_survives_peer_downtime(self, group4):
        """Frames queued toward a dead peer do not block the others."""
        config, dealer = group4

        async def scenario():
            blank = [PeerAddress("127.0.0.1", 0)] * 4
            nodes = [make_node(config, dealer, blank, pid) for pid in range(3)]
            await start_staged(
                nodes, [PeerAddress("127.0.0.1", reserve_port())]
            )
            got = {pid: [] for pid in range(3)}
            try:
                # p3 never starts; the group is still live (f = 1).
                for pid, node in enumerate(nodes):
                    ab = node.stack.create("ab", ("t",))
                    ab.on_deliver = lambda _i, d, pid=pid: got[pid].append(d.payload)
                for pid, node in enumerate(nodes):
                    node.stack.instance_at(("t",)).broadcast(b"m%d" % pid)
                for _ in range(300):
                    if all(len(msgs) == 3 for msgs in got.values()):
                        break
                    await asyncio.sleep(0.02)
                assert all(msgs == got[0] for msgs in got.values())
                assert len(got[0]) == 3
            finally:
                for node in nodes:
                    await node.close()

        asyncio.run(scenario())

    def test_close_is_idempotent(self, group4):
        config, dealer = group4

        async def scenario():
            addresses = [PeerAddress("127.0.0.1", 0)] * 4
            node = make_node(config, dealer, addresses, 0)
            await node.start()
            await node.close()
            await node.close()

        asyncio.run(scenario())

    def test_outbox_after_close_is_noop(self, group4):
        config, dealer = group4

        async def scenario():
            addresses = [PeerAddress("127.0.0.1", 0)] * 4
            node = make_node(config, dealer, addresses, 0)
            await node.start()
            await node.close()
            node.stack.send_frame(1, ("t",), 0, b"x")  # silently dropped

        asyncio.run(scenario())


class TestReconnectBackoff:
    def _node(self, config, pid=0):
        dealer = TrustedDealer(4, seed=b"backoff")
        addresses = [PeerAddress("127.0.0.1", 0)] * 4
        return RitasNode(config, pid, addresses, dealer.keystore_for(pid))

    def test_delay_doubles_up_to_cap(self, monkeypatch):
        set_schedule(monkeypatch, 0.05, 0.4, 0.0)
        node = self._node(GroupConfig(4))
        delays = [node._reconnect_delay(k) for k in range(1, 7)]
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.4, 0.4]
        assert node.reconnect_delays == delays

    def test_jitter_stays_within_factor(self, monkeypatch):
        set_schedule(monkeypatch, 0.1, 5.0, 0.5)
        node = self._node(GroupConfig(4))
        for _ in range(50):
            delay = node._reconnect_delay(1)
            assert 0.1 <= delay <= 0.1 * 1.5

    def test_retry_budget_sheds_queued_frames(self, monkeypatch):
        """Past the budget, frames toward a presumed-dead peer are
        dropped (bounded memory) while probing continues."""
        set_schedule(monkeypatch, 0.01, 0.02, 0.0)
        config = GroupConfig(4, reconnect_retry_budget=2)
        dealer = TrustedDealer(4, seed=b"budget")

        async def scenario():
            # Peers get reserved-but-unbound ports: connects fail fast.
            addresses = [PeerAddress("127.0.0.1", 0)] + [
                PeerAddress("127.0.0.1", reserve_port()) for _ in range(3)
            ]
            node = RitasNode(config, 0, addresses, dealer.keystore_for(0))
            await node.listen()
            await node.connect()
            try:
                for _ in range(5):
                    node.stack.send_frame(1, ("t",), 0, b"x")
                for _ in range(300):
                    if node.frames_dropped_reconnect >= 5:
                        break
                    await asyncio.sleep(0.01)
                assert node.frames_dropped_reconnect >= 5
                assert node.connect_attempts >= 3
                # Backoff grew between consecutive failures (the three
                # sender tasks interleave, so check the range, not
                # adjacent entries).
                for _ in range(300):
                    if 0.02 in node.reconnect_delays:
                        break
                    await asyncio.sleep(0.01)
                assert node.reconnect_delays[0] == 0.01
                assert 0.02 in node.reconnect_delays
            finally:
                await node.close()

        asyncio.run(scenario())

    def test_dead_peer_shed_releases_queue_memory(self, monkeypatch):
        """The budget shed must actually release the queued frames: the
        per-peer send queue reads empty (0 frames, 0 bytes) afterwards
        and the shed is visible in the node and stack counters."""
        set_schedule(monkeypatch, 0.01, 0.02, 0.0)
        config = GroupConfig(4, reconnect_retry_budget=1)
        dealer = TrustedDealer(4, seed=b"shed")

        async def scenario():
            addresses = [PeerAddress("127.0.0.1", 0)] + [
                PeerAddress("127.0.0.1", reserve_port()) for _ in range(3)
            ]
            node = RitasNode(config, 0, addresses, dealer.keystore_for(0))
            await node.listen()
            await node.connect()
            try:
                for _ in range(8):
                    node.stack.send_frame(1, ("t",), 0, b"payload")
                assert node.send_queue_depth(1)[0] > 0  # parked toward p1
                for _ in range(300):
                    if node.frames_dropped_reconnect >= 8:
                        break
                    await asyncio.sleep(0.01)
                assert node.frames_dropped_reconnect >= 8
                assert node.send_queue_depth(1) == (0, 0)
                assert node.frames_shed >= 8
                assert node.stack.stats.sends_shed >= 8
            finally:
                await node.close()

        asyncio.run(scenario())

    def test_peer_that_accepts_then_closes_is_backed_off(self, monkeypatch):
        """A connection that drops at once counts as a failed attempt, so
        reconnecting to a peer that accepts and closes follows the backoff
        schedule instead of spinning through connect/accept/close."""
        set_schedule(monkeypatch, 0.05, 0.4, 0.0)
        config = GroupConfig(4)
        dealer = TrustedDealer(4, seed=b"flapping")

        class _CloseAtOnce(asyncio.Protocol):
            def connection_made(self, transport):
                transport.close()

        async def scenario():
            server = await asyncio.get_running_loop().create_server(
                _CloseAtOnce, "127.0.0.1", 0
            )
            flapping = PeerAddress("127.0.0.1", server.sockets[0].getsockname()[1])
            node = RitasNode(
                config, 0, [PeerAddress("127.0.0.1", 0)] + [flapping] * 3,
                dealer.keystore_for(0),
            )
            await node.listen()
            await node.connect()
            try:
                await asyncio.sleep(1.0)
                # Per peer: attempts at 0, 0.05, 0.15, 0.35, 0.75 s (+ scheduling).
                assert 3 <= node.connect_attempts <= 3 * 7
                assert 0.4 in node.reconnect_delays
            finally:
                await node.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_ticker_fires_until_close(self, group4):
        config, dealer = group4

        async def scenario():
            addresses = [PeerAddress("127.0.0.1", 0)] * 4
            node = make_node(config, dealer, addresses, 0)
            await node.listen()
            ticks = []
            node.add_ticker(0.01, lambda: ticks.append(1))
            await asyncio.sleep(0.1)
            assert len(ticks) >= 3
            await node.close()
            settled = len(ticks)
            await asyncio.sleep(0.05)
            assert len(ticks) == settled

        asyncio.run(scenario())

    def test_ticker_rejects_bad_period(self, group4):
        config, dealer = group4

        async def scenario():
            addresses = [PeerAddress("127.0.0.1", 0)] * 4
            node = make_node(config, dealer, addresses, 0)
            with pytest.raises(ValueError):
                node.add_ticker(0.0, lambda: None)

        asyncio.run(scenario())


def count_encodes(monkeypatch):
    """Record the payload size of every channel encode (and so HMAC)."""
    calls = []
    inner = framing.FrameCodec.encode

    def encode(self, payload):
        calls.append(len(payload))
        return inner(self, payload)

    monkeypatch.setattr(framing.FrameCodec, "encode", encode)
    return calls


async def wait_until(predicate, what, timeout_s=10.0):
    for _ in range(int(timeout_s / 0.01)):
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


class _StalledPeer(asyncio.Protocol):
    """A peer that accepts the connection and stops reading until told."""

    def __init__(self):
        self.transport = None
        self.data = bytearray()

    def connection_made(self, transport):
        self.transport = transport
        transport.pause_reading()

    def data_received(self, data):
        self.data += data

    def frames(self):
        out, offset = [], 0
        while offset + 4 <= len(self.data):
            length = int.from_bytes(self.data[offset : offset + 4], "big")
            if offset + 4 + length > len(self.data):
                break
            out.append(bytes(self.data[offset + 4 : offset + 4 + length]))
            offset += 4 + length
        return out


class TestOutboundFlow:
    def test_paused_link_holds_units_unencoded_then_flushes_fifo(self, monkeypatch):
        """Behind a peer that stops reading, units wait in the bounded
        queue unencoded, shedding payload before agreement frames; on
        resume they leave in FIFO order with consecutive seqs."""
        config = GroupConfig(4, batching=False, send_queue_max_frames=4)
        dealer = TrustedDealer(4, seed=b"paused")
        encodes = count_encodes(monkeypatch)

        async def scenario():
            peer = _StalledPeer()
            server = await asyncio.get_running_loop().create_server(
                lambda: peer, "127.0.0.1", 0
            )
            addresses = [
                PeerAddress("127.0.0.1", 0),
                PeerAddress("127.0.0.1", server.sockets[0].getsockname()[1]),
            ] + [PeerAddress("127.0.0.1", reserve_port()) for _ in range(2)]
            node = RitasNode(config, 0, addresses, dealer.keystore_for(0))
            await node.listen()
            await node.connect()
            link = node._send_queues[1]
            try:
                await wait_until(lambda: link.transport is not None, "the link")
                bulk = bytes(1 << 20)
                sent = 0
                while not link.paused:
                    assert sent < 64, "the stalled peer never pushed back"
                    node.stack.send_frame(1, ("t",), 0, bulk)
                    sent += 1
                    await asyncio.sleep(0)
                assert len(link.queue) == 0
                encoded = len(encodes)
                for kind, index in [("P", 0), ("A", 0), ("P", 1), ("P", 2),
                                    ("A", 1), ("P", 3), ("P", 4), ("P", 5)]:
                    path = ("ab", "vect", 0, "bc", index) if kind == "A" else ("t",)
                    node.stack.send_frame(1, path, 0, f"{kind}{index}".encode())
                await asyncio.sleep(0.05)
                assert link.paused
                assert len(encodes) == encoded  # nothing encoded or HMAC'd
                assert node.send_queue_depth(1)[0] == 4
                assert node.frames_shed == 4
                peer.transport.resume_reading()
                await wait_until(lambda: len(peer.frames()) == sent + 4, "the flush")
                receiver = FrameCodec(dealer.keystore_for(1).key_for(0), 0)
                seqs, payloads = [], []
                for body in peer.frames():
                    seqs.append(int.from_bytes(body[:8], "big"))
                    payloads.append(decode_frame_ex(receiver.decode(body)[1])[2])
                assert seqs == list(range(seqs[0], seqs[0] + sent + 4))
                assert payloads[sent:] == [b"A0", b"A1", b"P4", b"P5"]
            finally:
                peer.transport.resume_reading()  # close() flushes what is buffered
                await node.close()
                peer.transport.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_units_toward_a_down_peer_are_never_encoded(self, monkeypatch):
        config = GroupConfig(4)
        dealer = TrustedDealer(4, seed=b"down")
        encodes = count_encodes(monkeypatch)

        async def scenario():
            addresses = [PeerAddress("127.0.0.1", 0)] + [
                PeerAddress("127.0.0.1", reserve_port()) for _ in range(3)
            ]
            node = RitasNode(config, 0, addresses, dealer.keystore_for(0))
            await node.listen()
            await node.connect()
            try:
                for _ in range(5):
                    node.stack.send_frame(1, ("t",), 0, b"x")
                await wait_until(lambda: node.connect_attempts >= 6, "reconnects")
                assert node.send_queue_depth(1)[0] == 5
                assert encodes == []
            finally:
                await node.close()

        asyncio.run(scenario())

    def test_burst_leaves_one_flat_container_per_peer_per_turn(self, group4):
        """A coalesced burst: each flush writes each peer once, no member
        of a received container is itself a container, loopback units
        share the flush instead of one loop callback each, and the link
        batch counters count queued units per merged container."""
        config, dealer = group4

        async def scenario():
            blank = [PeerAddress("127.0.0.1", 0)] * 4
            nodes = [make_node(config, dealer, blank, pid) for pid in range(4)]
            await start_staged(nodes)
            loop = asyncio.get_running_loop()
            flushes = [0] * 4
            writes, queued, nested, scheduled = [], [], [], []
            loopback = [0] * 4
            delivered = [0] * 4
            try:
                await wait_until(
                    lambda: all(
                        link.transport for node in nodes for link in node._send_queues.values()
                    ),
                    "every link",
                )
                for pid, node in enumerate(nodes):
                    ab = node.stack.create("ab", ("t",))
                    ab.on_deliver = lambda _i, _d, pid=pid: delivered.__setitem__(
                        pid, delivered[pid] + 1
                    )
                    flush, write, receive = node._flush, node._write, node.stack.receive

                    def counted_flush(pid=pid, flush=flush):
                        flushes[pid] += 1
                        flush()

                    def counted_write(link, pid=pid, write=write):
                        writes.append((pid, flushes[pid], link.pid))
                        queued.append(len(link.queue))
                        write(link)

                    def seen(src, data, pid=pid, receive=receive):
                        if src == pid:
                            loopback[pid] += 1
                        elif is_batch(data):
                            nested.extend(m for m in decode_batch_views(data) if is_batch(m))
                        receive(src, data)

                    node._flush, node._write = counted_flush, counted_write
                    node.stack.receive = seen

                def call_soon(callback, *args, **kwargs):
                    scheduled.append(callback)
                    return type(loop).call_soon(loop, callback, *args, **kwargs)

                loop.call_soon = call_soon
                for pid, node in enumerate(nodes):
                    with node.stack.coalesce():
                        for index in range(8):
                            node.stack.instance_at(("t",)).broadcast(b"%d-%d" % (pid, index))
                await wait_until(lambda: delivered == [32] * 4, "the burst")
            finally:
                del loop.call_soon
                for node in nodes:
                    await node.close()
            assert len(writes) == len(set(writes)), "a peer was written twice in one flush"
            assert nested == []
            names = {getattr(callback, "__name__", "") for callback in scheduled}
            assert not names & {"receive", "seen"}, "a loopback unit got its own callback"
            assert scheduled.count(nodes[0]._flush) < loopback[0]
            merged = [count for count in queued if count > 1]
            assert merged, "the burst merged nothing"
            assert sum(node.batches_sent for node in nodes) == len(merged)
            assert sum(node.frames_batched for node in nodes) == sum(merged)

        asyncio.run(scenario())

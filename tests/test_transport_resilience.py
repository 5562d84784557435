"""Transport resilience: late starters, reconnection, slow peers."""

import asyncio

import pytest

from repro.core.config import GroupConfig
from repro.crypto.keys import TrustedDealer
from repro.transport import tcp
from repro.transport.tcp import PeerAddress, RitasNode
from tests.util import reserve_port

pytestmark = pytest.mark.usefixtures("fast_reconnect")


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

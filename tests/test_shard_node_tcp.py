"""RitasNode hosting S stacks per process over shared authenticated links."""

import asyncio

import pytest

from repro.core.config import GroupConfig
from repro.crypto.keys import TrustedDealer
from repro.core.errors import ConfigurationError
from repro.core.wire import (
    PRIORITY_AGREEMENT,
    PRIORITY_PAYLOAD,
    encode_frame,
    frame_priority,
)
from repro.transport import tcp
from repro.transport.tcp import PeerAddress, RitasNode, tag_unit
from tests.util import make_sharded_node, reserve_port, start_tcp_group

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)

NAMES = ["s0", "s1"]


def make_sharded_group(n=4, names=NAMES, seed=23):
    return [make_sharded_node(pid, n, names, seed) for pid in range(n)]


async def close_all(nodes):
    for node in nodes:
        await node.close()


class TestShardedGroup:
    def test_both_shards_order_over_shared_links(self):
        """Two groups, one socket mesh: each shard's AB delivers its own
        stream on every node, in the same order everywhere."""

        async def scenario():
            nodes = make_sharded_group()
            try:
                await start_tcp_group(nodes)
                logs = {
                    (pid, s): []
                    for pid in range(4)
                    for s in range(2)
                }
                for node in nodes:
                    for index, stack in enumerate(node.stacks):
                        ab = stack.create("ab", ("t",))
                        ab.on_deliver = (
                            lambda _i, d, log=logs[(node.process_id, index)]:
                            log.append((d.sender, bytes(d.payload)))
                        )
                k = 3
                for node in nodes:
                    for index, stack in enumerate(node.stacks):
                        with stack.coalesce():
                            for j in range(k):
                                stack.instance_at(("t",)).broadcast(
                                    f"s{index}-p{node.process_id}-{j}".encode()
                                )

                async def done():
                    while any(len(log) < 4 * k for log in logs.values()):
                        await asyncio.sleep(0.01)

                await asyncio.wait_for(done(), timeout=60.0)
                for index in range(2):
                    # Total order: every node saw shard `index`'s stream
                    # identically...
                    reference = logs[(0, index)]
                    for pid in range(1, 4):
                        assert logs[(pid, index)][: len(reference)] == reference[
                            : len(logs[(pid, index)])
                        ]
                    # ...and it contains only that shard's payloads.
                    assert all(
                        payload.startswith(f"s{index}-".encode())
                        for _, payload in reference
                    )
            finally:
                await close_all(nodes)

        asyncio.run(scenario())

    def test_shard_metrics_share_one_registry(self):
        async def scenario():
            nodes = make_sharded_group()
            try:
                await start_tcp_group(nodes)
                registry = nodes[0].enable_metrics()
                for index, stack in enumerate(nodes[0].stacks):
                    assert [type(s).__name__ for s, _ in stack.stats.subscriptions] == [
                        "StackMetrics"
                    ]
                delivered = [0, 0]
                for node in nodes:
                    for index, stack in enumerate(node.stacks):
                        ab = stack.create("ab", ("t",))
                        if node.process_id == 0:
                            ab.on_deliver = (
                                lambda _i, _d, idx=index: delivered.__setitem__(
                                    idx, delivered[idx] + 1
                                )
                            )
                for node in nodes:
                    for stack in node.stacks:
                        stack.instance_at(("t",)).broadcast(b"m")

                async def done():
                    while min(delivered) < 4:
                        await asyncio.sleep(0.01)

                await asyncio.wait_for(done(), timeout=60.0)
                nodes[0].sample_metrics()
                shards_seen = {
                    metric.get("labels", {}).get("shard")
                    for metric in registry.snapshot()
                }
                assert {"s0", "s1"} <= shards_seen
            finally:
                await close_all(nodes)

        asyncio.run(scenario())


class TestDemux:
    def test_unknown_shard_index_is_rejected_and_charged(self):
        """A tagged unit for an unhosted shard is dropped, counted, and
        written to every hosted shard's misbehavior ledger."""
        node = make_sharded_node(0, seed=1)
        before = node.frames_rejected
        node._demux(2, tag_unit(7, b"junk"))
        assert node.frames_unknown_shard == 1
        assert node.frames_rejected == before + 1
        assert all(stack.ledger.score(2) > 0 for stack in node.stacks)

    def test_units_route_by_tag(self):
        node = make_sharded_node(0, seed=1)
        seen = [[], []]
        for index, stack in enumerate(node.stacks):
            stack.receive = lambda src, data, log=seen[index]: log.append((src, data))
        node._demux(1, b"\x01rest-of-frame")
        node._demux(1, tag_unit(1, b"\x01other-frame"))
        assert seen == [[(1, b"\x01rest-of-frame")], [(1, b"\x01other-frame")]]

    def test_rejects_duplicate_tags_and_mixed_sizes(self):
        node = make_sharded_node(0, names=["a"], seed=1)
        with pytest.raises(ConfigurationError, match="distinct"):
            node.add_shard(GroupConfig(4, group_tag="a"))
        with pytest.raises(ConfigurationError, match="same group size"):
            node.add_shard(GroupConfig(7, group_tag="b"))

    def test_keystore_needs_a_seed_or_an_argument(self):
        config = GroupConfig(4)
        blank = [PeerAddress("127.0.0.1", 0) for _ in range(4)]
        node = RitasNode(config, 0, blank, TrustedDealer(4, seed=b"k").keystore_for(0))
        with pytest.raises(ConfigurationError, match="keystore"):
            node.add_shard(GroupConfig(4, group_tag="b"))
        assert len(node.stacks) == 1

    def test_shards_are_added_before_connect(self):
        async def scenario():
            node = make_sharded_node(0, seed=1)
            await node.start()
            try:
                with pytest.raises(RuntimeError, match="precede"):
                    node.add_shard(GroupConfig(4, group_tag="late"))
            finally:
                await node.close()

        asyncio.run(scenario())


AGREEMENT_PATH = ("bc", 0)
PAYLOAD_PATH = ("rb", 0)


class TestSharedSendQueue:
    """The per-peer queue is shared by every hosted stack; the bound
    must treat their units alike.  The peers here never come up, so
    everything sent stays queued."""

    def test_frame_classes(self):
        assert frame_priority(encode_frame(AGREEMENT_PATH, 0, b"")) == PRIORITY_AGREEMENT
        assert frame_priority(encode_frame(PAYLOAD_PATH, 0, b"")) == PRIORITY_PAYLOAD

    def test_tagged_agreement_frames_outlive_payload(self):
        """Shard 1's consensus votes are shed after payload, exactly like
        shard 0's -- the shard tag must not hide the frame's class."""

        async def scenario():
            node = make_sharded_node(0, seed=1, send_queue_max_frames=4)
            await node.connect()
            try:
                shard0, shard1 = node.stacks
                for index in range(4):
                    shard1.send_frame(1, AGREEMENT_PATH, 0, index)
                for index in range(4):
                    shard0.send_frame(1, PAYLOAD_PATH, 0, index)
                assert node._send_queues[1].queue.drain() == [
                    tag_unit(1, encode_frame(AGREEMENT_PATH, 0, index))
                    for index in range(4)
                ]
                assert [s.stats.sends_shed for s in node.stacks] == [4, 0]
            finally:
                await node.close()

        asyncio.run(scenario())

    def test_evictions_are_charged_to_the_owning_stack(self):
        """A push by one shard may evict another shard's unit; the shed
        lands on the victim's stats, a shard that queued nothing is
        charged nothing, and the books balance."""

        async def scenario():
            node = make_sharded_node(
                0, names=["s0", "s1", "s2"], seed=1, send_queue_max_frames=3
            )
            await node.connect()
            try:
                shard0, shard1, _idle = node.stacks
                for index in range(3):
                    shard0.send_frame(1, PAYLOAD_PATH, 0, index)
                for index in range(2):
                    shard1.send_frame(1, AGREEMENT_PATH, 0, index)
                assert [s.stats.sends_shed for s in node.stacks] == [2, 0, 0]
                assert node.frames_shed == 2
            finally:
                await node.close()

        asyncio.run(scenario())

    def test_retry_budget_shed_is_charged_by_tag(self, monkeypatch):
        """Past the reconnect budget the dead peer's queue is dropped;
        each dropped unit is charged to the shard that queued it."""
        monkeypatch.setattr(tcp, "RECONNECT_BASE_S", 0.01)
        monkeypatch.setattr(tcp, "RECONNECT_MAX_S", 0.02)

        async def scenario():
            node = make_sharded_node(
                0, names=["s0", "s1", "s2"], seed=1, reconnect_retry_budget=2
            )
            node.set_peer_addresses(
                [PeerAddress("127.0.0.1", reserve_port()) for _ in range(4)]
            )
            await node.connect()
            try:
                shard0, shard1, _idle = node.stacks
                shard0.send_frame(1, PAYLOAD_PATH, 0, 0)
                for index in range(3):
                    shard1.send_frame(1, PAYLOAD_PATH, 0, index)

                async def dropped():
                    while node.frames_dropped_reconnect < 4:
                        await asyncio.sleep(0.01)

                await asyncio.wait_for(dropped(), timeout=30.0)
                assert [s.stats.sends_shed for s in node.stacks] == [1, 3, 0]
                assert node.frames_shed == 4
            finally:
                await node.close()

        asyncio.run(scenario())

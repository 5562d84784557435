"""Two groups in one process: one RitasNode per group, on one event loop.

The groups are dealt from different seeds, so they share no keys, coins
or RNG streams."""

import asyncio

import pytest

from repro.core.config import GroupConfig
from repro.core.wire import (
    PRIORITY_AGREEMENT,
    PRIORITY_PAYLOAD,
    encode_frame,
    frame_priority,
)
from tests.util import make_group_nodes, start_tcp_group

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)

SEEDS = [23, 24]


def make_groups(n=4, seeds=SEEDS, **knobs):
    """One list of nodes per group, pid-indexed, one seed per group;
    *knobs* are extra :class:`GroupConfig` fields."""
    return [make_group_nodes(GroupConfig(n, **knobs), seed) for seed in seeds]


async def close_all(groups):
    for nodes in groups:
        for node in nodes:
            await node.close()


class TestShardedGroup:
    def test_both_groups_order_on_one_loop(self):
        """Two groups, one event loop: each group's AB delivers its own
        stream on every node, in the same order everywhere."""

        async def scenario():
            groups = make_groups()
            try:
                for nodes in groups:
                    await start_tcp_group(nodes)
                logs = {(pid, g): [] for pid in range(4) for g in range(2)}
                for g, nodes in enumerate(groups):
                    for node in nodes:
                        ab = node.stack.create("ab", ("t",))
                        ab.on_deliver = (
                            lambda _i, d, log=logs[(node.process_id, g)]:
                            log.append((d.sender, bytes(d.payload)))
                        )
                k = 3
                for g, nodes in enumerate(groups):
                    for node in nodes:
                        with node.stack.coalesce():
                            for j in range(k):
                                node.stack.instance_at(("t",)).broadcast(
                                    f"s{g}-p{node.process_id}-{j}".encode()
                                )

                async def done():
                    while any(len(log) < 4 * k for log in logs.values()):
                        await asyncio.sleep(0.01)

                await asyncio.wait_for(done(), timeout=60.0)
                for g in range(2):
                    # Total order: every node saw group g's stream
                    # identically...
                    reference = logs[(0, g)]
                    for pid in range(1, 4):
                        assert logs[(pid, g)] == reference
                    # ...and it contains only that group's payloads.
                    assert all(
                        payload.startswith(f"s{g}-".encode()) for _, payload in reference
                    )
            finally:
                await close_all(groups)

        asyncio.run(scenario())

    def test_each_group_records_into_its_own_registry(self):
        """A process's two nodes keep two registries, each counting only
        its own group's traffic."""

        async def scenario():
            groups = make_groups()
            try:
                for nodes in groups:
                    await start_tcp_group(nodes)
                registries = [nodes[0].enable_metrics() for nodes in groups]
                delivered = [0, 0]
                broadcasts = [1, 2]
                for g, nodes in enumerate(groups):
                    for node in nodes:
                        ab = node.stack.create("ab", ("t",))
                        if node.process_id == 0:
                            ab.on_deliver = lambda _i, _d, g=g: delivered.__setitem__(
                                g, delivered[g] + 1
                            )
                for g, nodes in enumerate(groups):
                    for node in nodes:
                        for _ in range(broadcasts[g]):
                            node.stack.instance_at(("t",)).broadcast(b"m")

                async def done():
                    while delivered != [4 * count for count in broadcasts]:
                        await asyncio.sleep(0.01)

                await asyncio.wait_for(done(), timeout=60.0)
                for g, nodes in enumerate(groups):
                    nodes[0].sample_metrics()
                    (latency,) = (
                        m
                        for m in registries[g].metrics()
                        if m.name == "ritas_ab_delivery_latency_seconds"
                    )
                    # Node 0 times the deliveries of its own broadcasts.
                    assert latency.count == broadcasts[g]
            finally:
                await close_all(groups)

        asyncio.run(scenario())


AGREEMENT_PATH = ("bc", 0)
PAYLOAD_PATH = ("rb", 0)


class TestSharedSendQueue:
    """A node's per-peer queue is shared by every protocol instance of
    its stack; the bound must shed by frame class, and only within the
    group.  The peers here never come up, so everything sent stays
    queued."""

    def test_frame_classes(self):
        assert frame_priority(encode_frame(AGREEMENT_PATH, 0, b"")) == PRIORITY_AGREEMENT
        assert frame_priority(encode_frame(PAYLOAD_PATH, 0, b"")) == PRIORITY_PAYLOAD

    def test_agreement_frames_outlive_payload(self):
        """Consensus votes are shed after payload: the outbox reads the
        frame's class."""

        async def scenario():
            (node, *_), = make_groups(seeds=[1], send_queue_max_frames=4)
            await node.connect()
            try:
                for index in range(4):
                    node.stack.send_frame(1, AGREEMENT_PATH, 0, index)
                for index in range(4):
                    node.stack.send_frame(1, PAYLOAD_PATH, 0, index)
                assert node._send_queues[1].queue.drain() == [
                    encode_frame(AGREEMENT_PATH, 0, index) for index in range(4)
                ]
                assert node.stack.stats.sends_shed == 4
            finally:
                await node.close()

        asyncio.run(scenario())

    def test_evictions_are_charged_to_the_owning_stack(self):
        """One group's full queue evicts its own units; the process's
        other group, with queues of its own, is charged nothing."""

        async def scenario():
            (busy, *_), (idle, *_) = make_groups(seeds=[1, 2], send_queue_max_frames=3)
            for node in (busy, idle):
                await node.connect()
            try:
                for index in range(3):
                    busy.stack.send_frame(1, PAYLOAD_PATH, 0, index)
                for index in range(2):
                    busy.stack.send_frame(1, AGREEMENT_PATH, 0, index)
                idle.stack.send_frame(1, PAYLOAD_PATH, 0, 0)
                assert busy.stack.stats.sends_shed == busy.frames_shed == 2
                assert idle.stack.stats.sends_shed == idle.frames_shed == 0
            finally:
                for node in (busy, idle):
                    await node.close()

        asyncio.run(scenario())

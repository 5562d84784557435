"""Partition healing mid-agreement on the real asyncio TCP runtime.

The simulator's 2/2-split heal test has an exact counterpart here:
:meth:`RitasNode.set_link_blocked` holds each cross-island link (frames
queue, nothing is lost -- TCP semantics), so a burst submitted before
the split can only finish ordering after the heal, and must land in one
identical total order on every replica.
"""

import asyncio

import pytest

from repro.check.invariants import OrderLog
from repro.core.config import GroupConfig
from repro.crypto.keys import TrustedDealer
from repro.transport.tcp import PeerAddress, RitasNode

N = 4
ISLANDS = ((0, 1), (2, 3))
PER_NODE = 5
TOTAL = N * PER_NODE

pytestmark = [
    pytest.mark.usefixtures("fast_reconnect"),
    pytest.mark.filterwarnings(
        "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
    ),
]


async def _wait(predicate, timeout_s, what):
    for _ in range(int(timeout_s / 0.02)):
        if predicate():
            return
        await asyncio.sleep(0.02)
    raise TimeoutError(f"timed out waiting for {what}")


def _set_split(nodes, blocked):
    for src in ISLANDS[0]:
        for dest in ISLANDS[1]:
            nodes[src].set_link_blocked(dest, blocked)
            nodes[dest].set_link_blocked(src, blocked)


def test_tcp_heal_mid_agreement_delivers_identically():
    config = GroupConfig(N)
    dealer = TrustedDealer(N, seed=b"tcp-heal")

    async def scenario():
        blank = [PeerAddress("127.0.0.1", 0)] * N
        nodes = [
            RitasNode(config, pid, blank, dealer.keystore_for(pid)) for pid in range(N)
        ]
        for node in nodes:
            await node.listen()
        addresses = [PeerAddress("127.0.0.1", node.bound_port) for node in nodes]
        for node in nodes:
            node.set_peer_addresses(addresses)
        for node in nodes:
            await node.connect()
        order = OrderLog()
        for node in nodes:
            node.stack.stats.subscribe(order, OrderLog.KINDS)
            node.stack.create("ab", ("a",))

        def logs():
            return [order.of(pid, ("a",)) for pid in range(N)]

        try:
            # The whole burst goes in *before* the split...
            for pid, node in enumerate(nodes):
                for index in range(PER_NODE):
                    node.stack.instance_at(("a",)).broadcast(b"%d:%d" % (pid, index))
            await asyncio.sleep(0.001)
            # ...and the split lands mid-agreement: neither island holds
            # a quorum (n-f = 3 > 2), so the tail of the order can only
            # form after the heal.
            _set_split(nodes, True)
            assert any(len(log) < TOTAL for log in logs())
            await asyncio.sleep(0.3)
            # Still incomplete: 0.3 s is eternities on a loopback LAN,
            # so only the missing quorum explains the stall.
            assert any(len(log) < TOTAL for log in logs())

            _set_split(nodes, False)
            await _wait(
                lambda: all(len(log) == TOTAL for log in logs()),
                30,
                "post-heal delivery of the full burst",
            )
            final = logs()
            assert final[0] == final[1] == final[2] == final[3]
        finally:
            for node in nodes:
                await node.close()

    asyncio.run(scenario())

"""Always-on reclamation on the real asyncio TCP host.

Four :class:`RitasNode` on loopback with the gateway's service pair
attached and **no** recovery manager anywhere: what a long-lived
deployment holds must not depend on how much it has ordered, and a
replica cut off for many agreement rounds must catch up from frames its
peers had already sent -- they reclaimed those rounds long before.
"""

import asyncio

import pytest

from repro.core.atomic_broadcast import RETAINED_ROUNDS
from repro.core.config import GroupConfig
from repro.crypto.keys import TrustedDealer
from repro.gateway import GatewayServices
from repro.transport.tcp import PeerAddress, RitasNode

from util import start_tcp_group

N = 4
PHASE_PUTS = 300

pytestmark = [
    pytest.mark.usefixtures("fast_reconnect"),
    pytest.mark.filterwarnings(
        "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
    ),
]


class Group:
    def __init__(self):
        config = GroupConfig(N)
        dealer = TrustedDealer(N, seed=b"tcp-flat")
        blank = [PeerAddress("127.0.0.1", 0)] * N
        self.nodes = [
            RitasNode(config, pid, blank, dealer.keystore_for(pid))
            for pid in range(N)
        ]
        self.puts = 0

    async def start(self):
        await start_tcp_group(self.nodes)
        self.stores = [GatewayServices.attach(node).kv for node in self.nodes]
        self.sessions = [store.rsm.ab for store in self.stores]

    async def close(self):
        for node in self.nodes:
            await node.close()

    def put(self, pid):
        self.puts += 1
        self.stores[pid].put(f"k{self.puts % 50}", b"v%d" % self.puts)

    async def applied_everywhere(self, timeout_s=60.0):
        for _ in range(int(timeout_s / 0.01)):
            if all(ab.delivered_count == self.puts for ab in self.sessions):
                return
            await asyncio.sleep(0.01)
        raise TimeoutError(
            f"{[ab.delivered_count for ab in self.sessions]} of {self.puts} delivered"
        )

    async def load(self, count, pids=range(N)):
        """*count* puts round-robin over *pids*, paced so they spread
        over many agreement rounds instead of one burst."""
        pids = list(pids)
        for index in range(count):
            self.put(pids[index % len(pids)])
            await asyncio.sleep(0.002)

    async def quiesce(self):
        """One-message rounds, each run to completion, until the
        footprint repeats: the retained rounds then hold one quiet
        agreement apiece whatever came before (a round whose binary
        consensus needed a second coin round washes out after
        RETAINED_ROUNDS more).  A leak never repeats."""
        window = RETAINED_ROUNDS + 2
        seen = []
        for _ in range(10 * window):
            self.put(0)
            await self.applied_everywhere()
            await asyncio.sleep(0.02)  # trailing votes drain
            seen.append([node.stack.live_instances for node in self.nodes])
            if len(seen) >= window and all(s == seen[-1] for s in seen[-window:]):
                return
        raise AssertionError(f"footprint never settled: {seen[-window:]}")

    def gauges(self):
        return [
            {
                "live_instances": node.stack.live_instances,
                "ooc_pending": node.stack.ooc_pending,
                "send_queue_frames": sum(
                    node.send_queue_depth(peer)[0] for peer in range(N)
                ),
                "retained_rounds": ab.round - ab.gc_floor,
                "pending_local": ab.pending_local,
            }
            for node, ab in zip(self.nodes, self.sessions)
        ]


def run(scenario):
    async def main():
        group = Group()
        await group.start()
        try:
            await scenario(group)
        finally:
            await group.close()

    asyncio.run(main())


def test_gauges_are_flat_across_phases_without_recovery():
    async def scenario(group):
        snapshots = []
        for _ in range(3):
            await group.load(PHASE_PUTS)
            await group.applied_everywhere()
            await group.quiesce()
            snapshots.append((group.sessions[0].round, group.gauges()))
        (_, first), (round_2, second), (round_3, third) = snapshots
        assert round_3 > round_2 + 10  # phase 3 really ran rounds
        assert third == second == first
        for sample in third:
            assert sample["ooc_pending"] == 0
            assert sample["send_queue_frames"] == 0
            assert sample["retained_rounds"] == RETAINED_ROUNDS
        assert len({store.state_digest() for store in group.stores}) == 1

    run(scenario)


def test_laggard_catches_up_past_reclaimed_rounds():
    async def scenario(group):
        def hold_replica_3(blocked):
            for peer in range(3):
                group.nodes[peer].set_link_blocked(3, blocked)
                group.nodes[3].set_link_blocked(peer, blocked)

        await group.load(40)
        await group.applied_everywhere()
        await group.quiesce()
        flat = group.gauges()

        hold_replica_3(True)
        cut_at = group.sessions[0].round
        behind = group.sessions[3].delivered_count
        await group.load(PHASE_PUTS, pids=range(3))
        for _ in range(6000):
            if all(ab.delivered_count == group.puts for ab in group.sessions[:3]):
                break
            await asyncio.sleep(0.01)
        # The three ran on (n - f = 3) and reclaimed well past the cut...
        assert group.sessions[0].round >= cut_at + 10
        assert group.sessions[0].gc_floor > cut_at + RETAINED_ROUNDS
        # ...while replica 3 heard nothing.
        assert group.sessions[3].delivered_count == behind

        hold_replica_3(False)
        await group.applied_everywhere()
        await group.quiesce()
        logs = [
            [(d.sender, d.rbid) for d, _ in store.rsm.applied] for store in group.stores
        ]
        assert logs[3] == logs[0] == logs[1] == logs[2]
        assert len(logs[3]) == group.puts
        assert group.gauges() == flat

    run(scenario)

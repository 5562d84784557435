"""Chaos: the open-loop loadgen under replica crash/rejoin churn.

The gateway's headline durability claim -- an acknowledged write is
ordered exactly once, group-wide -- is cheap to state on a healthy
group.  This test asserts it while a replica crashes mid-load and
rejoins through the recovery path: every ``ok``-acked write's broadcast
id must appear exactly once in the replicas' applied log, and none may
vanish.  The audit hook rides ``on_applied`` (installed *before* the
gateway chains its own), because the recovery layer trims the RSM's
applied window -- reading state at the end would miss early commands.
"""

import asyncio

import pytest

from repro.core.config import GroupConfig
from repro.crypto.keys import TrustedDealer
from repro.gateway.loadgen import ChurnPlan, chaos_profile, run_load_with_churn
from repro.gateway.server import ClientGateway, GatewayServices
from repro.recovery import PHASE_LIVE, RecoveryManager
from repro.transport.tcp import PeerAddress, RitasNode

N = 4
INTERVAL = 16
TICK_S = 0.02
CHURN_REPLICA = 3

pytestmark = pytest.mark.usefixtures("fast_reconnect")


async def _wait(predicate, timeout_s, what):
    for _ in range(int(timeout_s / 0.02)):
        if predicate():
            return
        await asyncio.sleep(0.02)
    raise TimeoutError(f"timed out waiting for {what}")


def test_no_acked_write_lost_or_duplicated_under_churn():
    config = GroupConfig(N, checkpoint_interval=INTERVAL)
    dealer = TrustedDealer(N, seed=b"gateway-chaos")

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
        services = [GatewayServices.attach(node) for node in nodes]
        # Recovery managers from the start: the live replicas must hold
        # checkpoint certificates for the joiner to bootstrap from.
        managers = [
            RecoveryManager(node.stack, service.kv.rsm)
            for node, service in zip(nodes, services)
        ]
        for node, manager in zip(nodes, managers):
            node.add_ticker(TICK_S, manager.poke)

        # The audit trail: every applied command's broadcast id, in
        # apply order, on a replica that never crashes.  Installed
        # before the gateway so the gateway chains it.
        applied: list[tuple[int, int]] = []
        services[0].kv.rsm.on_applied = (
            lambda delivery, command, result: applied.append(delivery.msg_id)
        )

        gateway = ClientGateway(nodes[0], services[0])
        port = await gateway.listen()

        async def crash(replica: int) -> None:
            await nodes[replica].close()

        async def restart(replica: int) -> None:
            node = RitasNode(config, replica, addresses, dealer.keystore_for(replica))
            await node.listen()
            assert node.bound_port == addresses[replica].port
            await node.connect()
            services[replica] = GatewayServices.attach(node)
            managers[replica] = RecoveryManager(
                node.stack, services[replica].kv.rsm, recovering=True
            )
            node.add_ticker(TICK_S, managers[replica].poke)
            nodes[replica] = node

        try:
            report = await run_load_with_churn(
                "127.0.0.1",
                port,
                chaos_profile(seed=7),
                plan=ChurnPlan.crash_restart(
                    CHURN_REPLICA, crash_at=0.15, restart_at=0.6
                ),
                crash=crash,
                restart=restart,
            )

            # The load produced acked writes, and the churn landed
            # inside the run (the joiner went through recovery).
            assert report.ok > 0
            assert report.acked_ids
            await _wait(
                lambda: managers[CHURN_REPLICA].phase == PHASE_LIVE,
                60,
                "churn replica rejoin",
            )
            assert managers[CHURN_REPLICA].stats.snapshots_installed >= 1

            # Durability audit: no acked write lost, none applied twice.
            assert len(applied) == len(set(applied)), "duplicate apply"
            missing = set(report.acked_ids) - set(applied)
            assert not missing, f"acked writes never applied: {missing}"
            assert len(report.acked_ids) == len(set(report.acked_ids))

            # And the group converges to one digest including the joiner.
            await _wait(
                lambda: len({s.kv.state_digest() for s in services}) == 1,
                60,
                "post-churn digest convergence",
            )
        finally:
            await gateway.close()
            for node in nodes:
                await node.close()

    asyncio.run(scenario())

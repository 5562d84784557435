"""Kill-and-restart recovery on the real asyncio TCP runtime.

The sans-IO recovery layer must behave identically here and on the
simulator: a node is closed mid-run (crash), the group keeps ordering
commands, then a brand-new node rebinds the same port, bootstraps from
its peers and converges on the same state digest.
"""

import asyncio

import pytest

from repro.apps.kv_store import ReplicatedKvStore
from repro.core.config import GroupConfig
from repro.crypto.keys import TrustedDealer
from repro.recovery import PHASE_LIVE, RecoveryManager
from repro.transport.tcp import PeerAddress, RitasNode

N = 4
INTERVAL = 16
TICK_S = 0.02

pytestmark = pytest.mark.usefixtures("fast_reconnect")


def _make_node(config, dealer, addresses, pid):
    return RitasNode(config, pid, addresses, dealer.keystore_for(pid))


def _attach(node, recovering=False):
    store = ReplicatedKvStore(node.stack.create("ab", ("kv",)))
    manager = RecoveryManager(node.stack, store.rsm, recovering=recovering)
    node.add_ticker(TICK_S, manager.poke)
    return store, manager


async def _wait(predicate, timeout_s, what):
    for _ in range(int(timeout_s / 0.02)):
        if predicate():
            return
        await asyncio.sleep(0.02)
    raise TimeoutError(f"timed out waiting for {what}")


def test_tcp_kill_restart_rejoin():
    config = GroupConfig(N, checkpoint_interval=INTERVAL)
    dealer = TrustedDealer(N, seed=b"tcp-recovery")

    async def scenario():
        blank = [PeerAddress("127.0.0.1", 0)] * N
        nodes = [_make_node(config, dealer, blank, pid) for pid in range(N)]
        for node in nodes:
            await node.listen()
        addresses = [PeerAddress("127.0.0.1", node.bound_port) for node in nodes]
        for node in nodes:
            node.set_peer_addresses(addresses)
        for node in nodes:
            await node.connect()
        stores, managers = [], []
        for node in nodes:
            store, manager = _attach(node)
            stores.append(store)
            managers.append(manager)
        try:
            # Phase A: everyone up, two checkpoint windows of commands.
            for burst in range(4):
                for i in range(8):
                    stores[i % N].put(f"a/{burst}/{i}", bytes([burst, i]))
                target = 8 * (burst + 1)
                await _wait(
                    lambda: all(m.position >= target for m in managers),
                    20,
                    f"phase A burst {burst}",
                )
            assert all(m.stable_seq >= INTERVAL for m in managers)

            # Crash replica 3 (close severs every connection).
            await nodes[3].close()

            # Phase B: the group keeps ordering without it.
            for burst in range(4):
                for i in range(8):
                    stores[i % 3].put(f"b/{burst}/{i}", bytes([burst, i]))
                target = 32 + 8 * (burst + 1)
                await _wait(
                    lambda: all(m.position >= target for m in managers[:3]),
                    20,
                    f"phase B burst {burst}",
                )
            assert managers[3].position == 32  # frozen at crash

            # Restart on the same port with a blank stack and recover.
            nodes[3] = _make_node(config, dealer, addresses, 3)
            await nodes[3].listen()
            assert nodes[3].bound_port == addresses[3].port  # same-port rebind
            await nodes[3].connect()
            stores[3], managers[3] = _attach(nodes[3], recovering=True)
            await _wait(
                lambda: managers[3].phase == PHASE_LIVE, 60, "replica 3 rejoin"
            )
            assert managers[3].stats.snapshots_installed >= 1
            assert managers[3].stats.state_bytes_received > 0
            assert managers[3].stats.rejoin_time_s is not None

            # Convergence: same digest, same position, everywhere.
            await _wait(
                lambda: len({s.state_digest() for s in stores}) == 1
                and len({m.position for m in managers}) == 1,
                60,
                "post-rejoin convergence",
            )

            # The GC floor advanced under checkpointing on this runtime.
            assert any(m._ab.gc_floor > 0 for m in managers[:3])

            # The recovered replica submits; its command is ordered
            # everywhere (broadcast ids resumed past the old incarnation).
            stores[3].put("tcp-after", b"!")
            await _wait(
                lambda: all(s.get("tcp-after") == b"!" for s in stores),
                30,
                "post-rejoin submission",
            )
        finally:
            for node in nodes:
                await node.close()

    asyncio.run(scenario())

#!/usr/bin/env python3
"""A replicated key-value store over *real TCP sockets* -- with a traitor.

Four replicas run on localhost, connected by the authenticated TCP
transport (HMAC frames standing in for the paper's IPSec AH channel).
Replica 3 is Byzantine: its consensus layers run the paper's Section 4.2
attack (propose 0 at binary consensus, push ⊥ at multi-valued
consensus).  The three correct replicas still converge to identical
state -- the attack costs them nothing.

Run with:  python examples/replicated_kv.py
"""

import asyncio

from repro import GroupConfig, ProtocolFactory, TrustedDealer
from repro.adversary import byzantine_paper_faultload
from repro.apps import ReplicatedKvStore
from repro.transport import PeerAddress, RitasNode

N = 4
BYZANTINE_REPLICA = 3


async def main() -> None:
    config = GroupConfig(N)
    dealer = TrustedDealer(N, seed=b"examples/replicated_kv")
    # Port 0: each replica binds an ephemeral port, then learns the others'.
    blank = [PeerAddress("127.0.0.1", 0)] * N

    nodes: list[RitasNode] = []
    stores: list[ReplicatedKvStore] = []
    for pid in range(N):
        factory = ProtocolFactory.default()
        if pid == BYZANTINE_REPLICA:
            factory = byzantine_paper_faultload(factory)
        node = RitasNode(config, pid, blank, dealer.keystore_for(pid), factory=factory)
        await node.listen()
        nodes.append(node)
        stores.append(ReplicatedKvStore(node.stack.create("ab", ("kv",))))
    addresses = [PeerAddress("127.0.0.1", node.bound_port) for node in nodes]
    for node in nodes:
        node.set_peer_addresses(addresses)
        await node.connect()

    ports = ", ".join(str(address.port) for address in addresses)
    print(f"{N} replicas up on 127.0.0.1 ports {ports}")
    print(f"replica {BYZANTINE_REPLICA} is Byzantine (Section 4.2 faultload)\n")

    stores[0].put("motd", b"replicated hello")
    stores[1].put("answer", b"42")
    stores[2].cas("answer", b"42", b"still 42")
    stores[0].delete("motd")

    correct = [pid for pid in range(N) if pid != BYZANTINE_REPLICA]
    expected_log = 4

    async def converged() -> bool:
        return all(len(stores[pid].rsm.applied) >= expected_log for pid in correct)

    for _ in range(200):
        if await converged():
            break
        await asyncio.sleep(0.05)
    else:
        raise TimeoutError("replicas did not converge")

    for pid in correct:
        store = stores[pid]
        print(
            f"replica {pid}: keys={store.keys()} "
            f"answer={store.get('answer')!r} digest={store.state_digest().hex()[:16]}"
        )
    digests = {stores[pid].state_digest() for pid in correct}
    print(f"\ncorrect replicas agree on state: {len(digests) == 1}")

    stats = nodes[correct[0]].stack.stats
    print(
        f"binary consensus rounds used: "
        f"{sorted(r for (p, r) in stats.consensus_rounds if p == 'bc')} "
        f"(the attack never forced a second round)"
    )
    for node in nodes:
        await node.close()


if __name__ == "__main__":
    asyncio.run(main())

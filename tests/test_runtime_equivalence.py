"""The sans-IO guarantee, across runtimes.

The same workload runs on the discrete-event simulator and on real
asyncio TCP -- there both on a plain group and on group 1 of two, while
group 0's nodes order background traffic of their own on the same loop.  Atomic broadcast
fixes a total order *per run* -- batching may differ between runs, so
the orders themselves may differ -- but in every run, on every runtime:

- all replicas agree on the log and the state (digests equal);
- the log contains exactly the submitted commands, no more, no less;
- the final state is the deterministic replay of that run's log.
"""

import asyncio

import pytest

from repro import GroupConfig, LanSimulation, TrustedDealer
from repro.apps import ReplicatedKvStore
from repro.apps.kv_store import _apply_kv
from repro.apps.state_machine import Command
from repro.transport import PeerAddress, RitasNode
from tests.util import make_group_nodes, start_tcp_group

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)

WORKLOAD = [
    (0, "put", "alpha", b"1"),
    (1, "put", "beta", b"2"),
    (2, "cas", "alpha", b"1", b"one"),
    (3, "put", "gamma", b"3"),
    (0, "delete", "beta"),
]


def apply_workload(stores):
    for op in WORKLOAD:
        replica, verb, *args = op
        getattr(stores[replica], verb)(*args)


def run_simulated():
    sim = LanSimulation(n=4, seed=77)
    stores = [
        ReplicatedKvStore(stack.create("ab", ("kv",))) for stack in sim.stacks
    ]
    apply_workload(stores)
    sim.run(
        until=lambda: all(len(s.rsm.applied) == len(WORKLOAD) for s in stores),
        max_time=60,
    )
    return stores


def plain_nodes():
    config = GroupConfig(4)
    dealer = TrustedDealer(4, seed=b"equivalence")
    addresses = [PeerAddress("127.0.0.1", 0) for _ in range(4)]
    return [
        RitasNode(config, pid, addresses, dealer.keystore_for(pid))
        for pid in range(4)
    ]


def run_tcp(shard=0):
    """Run the workload on a plain group, or (``shard=1``) on group 1 of
    two whose group 0 orders a background stream of its own on the same
    event loop meanwhile."""

    async def scenario():
        if shard:
            background_nodes, nodes = (
                make_group_nodes(GroupConfig(4), seed=seed) for seed in (41, 42)
            )
        else:
            background_nodes, nodes = [], plain_nodes()
        for group in (background_nodes, nodes):
            await start_tcp_group(group)
        try:
            stores = [ReplicatedKvStore(node.stack.create("ab", ("kv",))) for node in nodes]
            background = []
            if shard:
                noise = [node.stack.create("ab", ("noise",)) for node in background_nodes]
                noise[0].on_deliver = lambda _i, d: background.append(bytes(d.payload))
                for pid, ab in enumerate(noise):
                    for j in range(len(WORKLOAD)):
                        ab.broadcast(f"noise-{pid}-{j}".encode())
            apply_workload(stores)
            expected_noise = 4 * len(WORKLOAD) if shard else 0
            for _ in range(1500):
                if len(background) == expected_noise and all(
                    len(s.rsm.applied) == len(WORKLOAD) for s in stores
                ):
                    break
                await asyncio.sleep(0.02)
            else:
                raise TimeoutError("TCP run did not converge")
            return stores
        finally:
            for node in [*background_nodes, *nodes]:
                await node.close()

    return asyncio.run(scenario())


def replay(log):
    """Deterministically replay a (delivery, command) log from scratch."""
    state: dict = {}
    for _, command in log:
        state, _ = _apply_kv(state, command)
    return state


def check_run_invariants(stores):
    digests = {store.state_digest() for store in stores}
    assert len(digests) == 1
    logs = [[(d.msg_id, c) for d, c in store.rsm.applied] for store in stores]
    assert all(log == logs[0] for log in logs)
    ids = [msg_id for msg_id, _ in logs[0]]
    assert len(ids) == len(set(ids)) == len(WORKLOAD)
    submitted = {
        (replica, verb, tuple(args)) for replica, verb, *args in WORKLOAD
    }
    applied = {
        (msg_id[0], command.op, tuple(command.args)) for msg_id, command in logs[0]
    }
    assert applied == submitted
    assert {k: v for k, v in stores[0].rsm.state.items()} == replay(
        stores[0].rsm.applied
    )
    return logs[0]


def test_simulated_run_invariants():
    check_run_invariants(run_simulated())


@pytest.mark.parametrize("shard", [0, 1], ids=["plain-host", "shard-1-of-2"])
def test_tcp_run_invariants(shard):
    check_run_invariants(run_tcp(shard))


@pytest.mark.parametrize("shard", [0, 1], ids=["plain-host", "shard-1-of-2"])
def test_runs_deliver_identical_command_sets(shard):
    """Across runtimes the *set* of ordered commands is identical; the
    order itself is whatever that run agreed (batching may differ)."""
    sim_log = check_run_invariants(run_simulated())
    tcp_log = check_run_invariants(run_tcp(shard))
    assert sorted(m for m, _ in sim_log) == sorted(m for m, _ in tcp_log)

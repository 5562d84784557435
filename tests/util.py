"""Test utilities: lightweight networks for exercising the sans-IO stack.

Two runtimes besides the full LAN simulation:

- :class:`InstantNet` -- synchronous, delivers every frame immediately
  in send order.  Fast unit-level runs.
- :class:`ShuffleNet` -- keeps all in-flight frames in a pool and lets a
  seeded RNG pick which one to deliver next, preserving only per-pair
  FIFO (the TCP guarantee).  This emulates an adversarial-ish scheduler
  and is what the property-based consensus tests run on: agreement and
  validity must hold on *every* schedule.
"""

from __future__ import annotations

import random
import socket
from collections import deque

from repro.core.config import GroupConfig
from repro.core.stack import ProtocolFactory, Stack
from repro.crypto.coin import SharedCoinDealer
from repro.crypto.keys import TrustedDealer


class _BaseNet:
    """Shared plumbing: builds one stack per process."""

    def __init__(
        self,
        n: int = 4,
        *,
        seed: int = 0,
        factories: dict[int, ProtocolFactory] | None = None,
        crashed: set[int] | None = None,
        config: GroupConfig | None = None,
    ):
        self.config = config if config is not None else GroupConfig(n)
        n = self.config.num_processes
        self.crashed = set(crashed or ())
        dealer = TrustedDealer(n, seed=str(seed).encode())
        coin_dealer = (
            SharedCoinDealer(secret=f"coin/{seed}".encode())
            if self.config.bc_coin == "shared"
            else None
        )
        self.stacks: list[Stack] = []
        for pid in range(n):
            factory = (factories or {}).get(pid)
            stack = Stack(
                self.config,
                pid,
                outbox=self._make_outbox(pid),
                keystore=dealer.keystore_for(pid),
                factory=factory,
                rng=random.Random(f"{seed}/{pid}"),
                coin=coin_dealer.coin_for(pid) if coin_dealer else None,
            )
            self.stacks.append(stack)

    def _make_outbox(self, src: int):
        def outbox(dest: int, data: bytes) -> None:
            self.enqueue(src, dest, data)

        return outbox

    def enqueue(self, src: int, dest: int, data: bytes) -> None:
        raise NotImplementedError

    def crash(self, pid: int) -> None:
        self.crashed.add(pid)


class InstantNet(_BaseNet):
    """Delivers frames breadth-first in send order (deterministic)."""

    def __init__(self, n: int = 4, **kwargs):
        self.queue: deque[tuple[int, int, bytes]] = deque()
        super().__init__(n, **kwargs)

    def enqueue(self, src: int, dest: int, data: bytes) -> None:
        if src in self.crashed:
            return
        self.queue.append((src, dest, data))

    def run(self, max_frames: int = 2_000_000) -> int:
        """Deliver until quiescent; returns frames delivered."""
        delivered = 0
        while self.queue and delivered < max_frames:
            src, dest, data = self.queue.popleft()
            delivered += 1
            if dest in self.crashed:
                continue
            self.stacks[dest].receive(src, data)
        if self.queue:
            raise RuntimeError("frame budget exhausted; likely a protocol loop")
        return delivered


class ShuffleNet(_BaseNet):
    """Delivers frames in a random order (per-pair FIFO preserved)."""

    def __init__(self, n: int = 4, *, seed: int = 0, **kwargs):
        self.pairs: dict[tuple[int, int], deque[bytes]] = {}
        self.rng = random.Random(f"schedule/{seed}")
        #: Processes whose inbound frames stay queued (nothing is lost):
        #: a partition seen as delay.  Empty the set to heal.
        self.held: set[int] = set()
        super().__init__(n, seed=seed, **kwargs)

    def enqueue(self, src: int, dest: int, data: bytes) -> None:
        if src in self.crashed:
            return
        self.pairs.setdefault((src, dest), deque()).append(data)

    def pending(self) -> int:
        return sum(len(q) for q in self.pairs.values())

    def step(self) -> bool:
        """Deliver one frame from a randomly chosen nonempty pair."""
        blocked = self.crashed | self.held
        live = [pair for pair, q in self.pairs.items() if q and pair[1] not in blocked]
        if not live:
            # Drain frames addressed to crashed processes so quiescence
            # is detectable.
            for (_, dest), q in self.pairs.items():
                if dest in self.crashed:
                    q.clear()
            return False
        src, dest = self.rng.choice(live)
        data = self.pairs[(src, dest)].popleft()
        self.stacks[dest].receive(src, data)
        return True

    def run(self, max_frames: int = 2_000_000) -> int:
        delivered = 0
        while self.step():
            delivered += 1
            if delivered >= max_frames:
                raise RuntimeError("frame budget exhausted; likely a protocol loop")
        return delivered


def decisions_of(net: _BaseNet, path: tuple, attr: str = "decision") -> list:
    """Collect a per-process attribute of the instance at *path*."""
    values = []
    for pid in range(net.config.num_processes):
        if pid in net.crashed:
            continue
        instance = net.stacks[pid].instance_at(path)
        values.append(None if instance is None else getattr(instance, attr))
    return values


def make_group_nodes(config: GroupConfig, seed: int = 23):
    """One group's TCP nodes (unbound, on loopback), keystores dealt from
    *seed* the way the simulator's dealer does.  Co-hosted groups built
    with different seeds share no keys, coins or RNG streams."""
    from repro.transport.tcp import PeerAddress, RitasNode

    n = config.num_processes
    dealer = TrustedDealer(n, seed=str(seed).encode())
    blank = [PeerAddress("127.0.0.1", 0) for _ in range(n)]
    return [
        RitasNode(config, pid, blank, dealer.keystore_for(pid), seed=seed)
        for pid in range(n)
    ]


def reserve_port() -> int:
    """An ephemeral port for a process that must be addressable before
    it binds -- or never binds, so connects to it fail fast (the kernel
    rarely reassigns it in the window)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def start_tcp_group(nodes) -> None:
    """Bind every node on an ephemeral port, share the ports, connect."""
    from repro.transport.tcp import PeerAddress

    for node in nodes:
        await node.listen()
    addresses = [PeerAddress("127.0.0.1", node.bound_port) for node in nodes]
    for node in nodes:
        node.set_peer_addresses(addresses)
    for node in nodes:
        await node.connect()

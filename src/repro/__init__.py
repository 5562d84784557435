"""repro -- RITAS: Randomized Intrusion-Tolerant Asynchronous Services.

A from-scratch Python reproduction of the protocol stack of

    H. Moniz, N. F. Neves, M. Correia, P. Veríssimo,
    "Randomized Intrusion-Tolerant Asynchronous Services", DSN 2006.

The stack tolerates up to ``f = floor((n-1)/3)`` Byzantine processes
with no synchrony assumptions, no signatures, and no leader:

- reliable broadcast and matrix echo broadcast,
- randomized binary consensus (the only coin-flipping layer),
- multi-valued consensus, vector consensus, atomic broadcast.

Quickstart (simulated 4-process LAN)::

    from repro import LanSimulation

    sim = LanSimulation(n=4, seed=7)
    deliveries = [[] for _ in range(4)]
    for pid, stack in enumerate(sim.stacks):
        ab = stack.create("ab", ("demo",))
        ab.on_deliver = lambda _, d, pid=pid: deliveries[pid].append(d)
    sim.stacks[0].instance_at(("demo",)).broadcast(b"hello")
    sim.run(until=lambda: all(len(d) == 1 for d in deliveries))

See :mod:`repro.transport` for running over real TCP sockets and
:mod:`repro.eval` for the reproduction of the paper's evaluation
(``python -m repro.eval``).
"""

from repro.core import (
    AbDelivery,
    AtomicBroadcast,
    BinaryConsensus,
    ControlBlock,
    EchoBroadcast,
    GroupConfig,
    MultiValuedConsensus,
    ProtocolFactory,
    ReliableBroadcast,
    RitasError,
    Stack,
    StackStats,
    VectorConsensus,
)
from repro.crypto import KeyStore, LocalCoin, SharedCoinDealer, TrustedDealer
from repro.net import (
    LAN_2006,
    FaultPlan,
    LanSimulation,
    NetworkParameters,
    Partition,
)

__version__ = "1.0.0"

__all__ = [
    "AbDelivery",
    "AtomicBroadcast",
    "BinaryConsensus",
    "ControlBlock",
    "EchoBroadcast",
    "FaultPlan",
    "GroupConfig",
    "KeyStore",
    "LAN_2006",
    "LanSimulation",
    "LocalCoin",
    "MultiValuedConsensus",
    "NetworkParameters",
    "Partition",
    "ProtocolFactory",
    "ReliableBroadcast",
    "RitasError",
    "SharedCoinDealer",
    "Stack",
    "StackStats",
    "TrustedDealer",
    "VectorConsensus",
    "__version__",
]

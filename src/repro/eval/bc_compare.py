"""Head-to-head comparison of the binary-consensus engines.

In the style of the experimental BFT-comparison literature (arXiv
2004.09547): the same workload is run over every registered
(engine, coin) pair and three views are reported (``python -m
repro.eval ablation-coin`` prints them side by side) --

- **isolated latency** (Table-1 style): wall-clock seconds from propose
  to the observer's decision, one instance on the simulated 2006 LAN;
- **burst throughput**: atomic-broadcast burst delivery rate with the
  engine underneath every agreement round
  (:func:`repro.eval.atomic_burst.run_burst` with the engine knobs);
- **rounds-to-decide distribution**: split proposals over many shuffled
  adversarial-ish schedules, with an optional always-zero Byzantine
  attacker.  This is where the engines actually differ: the local-coin
  Bracha engine has a geometric tail (each process's coin must line up),
  the shared-coin engines decide in a bounded number of rounds.

All runs are seeded and schedule-deterministic, so the distributions --
not just their summary statistics -- are reproducible run to run.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any

from repro.adversary.strategies import byzantine_paper_faultload
from repro.core.config import GroupConfig
from repro.core.stack import ProtocolFactory, Stack
from repro.crypto.coin import SharedCoinDealer
from repro.crypto.keys import TrustedDealer
from repro.eval.atomic_burst import run_burst
from repro.net.network import LAN_2006, LanSimulation, NetworkParameters

#: The engine/coin combinations under comparison.  (crain, local) is
#: absent by construction: the Crain decide rule is unsafe over
#: independent local coins and the config layer rejects it.
ENGINE_PAIRS: tuple[tuple[str, str], ...] = (
    ("bracha", "local"),
    ("bracha", "shared"),
    ("crain", "shared"),
)


def pair_config(engine: str, coin: str, n: int = 4, **kwargs: Any) -> GroupConfig:
    """Group config running *engine* over *coin*."""
    return GroupConfig(n, bc_engine=engine, bc_coin=coin, **kwargs)


def isolated_latency(
    engine: str,
    coin: str,
    *,
    n: int = 4,
    seed: int = 0,
    ipsec: bool = True,
    params: NetworkParameters = LAN_2006,
    unanimous: bool = True,
) -> float:
    """Seconds from propose to process 0's decision, one instance on the
    simulated LAN (Table-1 style)."""
    sim = LanSimulation(pair_config(engine, coin, n), seed=seed, ipsec=ipsec, params=params)
    done_at: list[float | None] = [None]

    def observe(_instance, _event) -> None:
        if done_at[0] is None:
            done_at[0] = sim.now

    for pid in sim.config.process_ids:
        instance = sim.stacks[pid].create("bc", ("bench",))
        if pid == 0:
            instance.on_deliver = observe
    for pid in sim.config.process_ids:
        proposal = 1 if unanimous else pid % 2
        sim.stacks[pid].instance_at(("bench",)).propose(proposal)
    reason = sim.run(until=lambda: done_at[0] is not None, max_time=120.0)
    if reason != "until" or done_at[0] is None:
        raise RuntimeError(f"bc/{engine}+{coin} did not decide (stop reason: {reason})")
    return done_at[0]


def burst_throughput(
    engine: str,
    coin: str,
    *,
    burst: int = 16,
    message_bytes: int = 100,
    n: int = 4,
    seed: int = 0,
) -> float:
    """Atomic-broadcast burst throughput (msgs/s) with the engine under
    every agreement round."""
    result = run_burst(
        burst,
        message_bytes,
        n=n,
        seed=seed,
        metrics=False,
        config_kwargs={"bc_engine": engine, "bc_coin": coin},
    )
    return result.throughput_msgs_s


def decision_rounds(
    engine: str,
    coin: str,
    seed: int,
    *,
    n: int = 4,
    attacker: bool = False,
) -> int:
    """One split-proposal binary consensus on a shuffled schedule;
    returns the latest decision round among correct processes.

    With *attacker*, process ``n - 1`` runs the paper's always-zero
    Byzantine strategy (grafted onto whichever engine is configured);
    correct proposals stay split so the adversary can actually steer.
    """
    config = pair_config(engine, coin, n)
    dealer = TrustedDealer(n, seed=b"bc-compare")
    # The dealer secret varies with the sample seed: under a *fixed*
    # secret every sample sees the same per-round coin sequence for this
    # instance path, which degenerates the distribution of any engine
    # whose decide rule must *match* the coin (Crain) to a single value.
    coin_dealer = (
        SharedCoinDealer(secret=f"bc-compare-shared/{seed}".encode())
        if coin == "shared"
        else None
    )
    honest = ProtocolFactory.default(config)
    pairs: dict[tuple[int, int], list[bytes]] = {}
    stacks: list[Stack] = []
    for pid in range(n):
        factory = honest
        if attacker and pid == n - 1:
            factory = byzantine_paper_faultload(honest)
        stacks.append(
            Stack(
                config,
                pid,
                outbox=lambda dest, data, pid=pid: pairs.setdefault(
                    (pid, dest), []
                ).append(data),
                keystore=dealer.keystore_for(pid),
                factory=factory,
                rng=random.Random(f"{seed}/{pid}"),
                coin=coin_dealer.coin_for(pid) if coin_dealer else None,
            )
        )
    rng = random.Random(f"schedule/{seed}")
    for stack in stacks:
        stack.create("bc", ("b",))
    correct = range(n - 1) if attacker else range(n)
    for pid, stack in enumerate(stacks):
        stack.instance_at(("b",)).propose(1 if pid < (n + 1) // 2 else 0)
    while True:
        live = [pair for pair, queue in pairs.items() if queue]
        if not live:
            break
        src, dest = rng.choice(live)
        stacks[dest].receive(src, pairs[(src, dest)].pop(0))
    rounds = []
    for pid in correct:
        instance = stacks[pid].instance_at(("b",))
        if not instance.decided:
            raise RuntimeError(f"bc/{engine}+{coin} seed {seed}: p{pid} never decided")
        rounds.append(instance.decision_round)
    return max(rounds)


def rounds_distribution(
    engine: str,
    coin: str,
    *,
    samples: int = 120,
    n: int = 4,
    attacker: bool = False,
    base_seed: int = 0,
) -> Counter:
    """Decision-round distribution over *samples* shuffled schedules."""
    return Counter(
        decision_rounds(engine, coin, base_seed + seed, n=n, attacker=attacker)
        for seed in range(samples)
    )

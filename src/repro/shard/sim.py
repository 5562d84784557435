"""S independent RITAS groups on one discrete-event timeline.

Each shard is a full :class:`~repro.net.network.LanSimulation` -- its
own stacks, key material (scoped by ``GroupConfig.group_tag``), fault
plan, and link queues -- but every shard schedules on **one shared
EventLoop**, so the groups advance in a single global virtual-time
order and a test can interleave, partition, or compare them
deterministically.

Two placement models:

- **scale-out** (default): every shard gets its own ``n`` simulated
  hosts (S*n machines total).  Shard resources are independent, so
  aggregate ordered throughput scales with S -- the deployment the
  sharding benchmark measures.
- **colocate**: all shards contend on the *same* ``n`` hosts'
  CPU/NIC resources (``hosts=`` sharing).  This is the honest model for
  S groups stacked on one box: aggregate throughput stays roughly flat
  because the bottleneck -- host CPU -- is shared.

Invariants are asserted per shard: :meth:`attach_checkers` hangs one
:class:`~repro.check.invariants.InvariantChecker` per group off the
shared loop (the checkers chain on ``loop.on_event``).
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Sequence

from repro.core.config import GroupConfig
from repro.net.faults import FaultPlan
from repro.net.network import LAN_2006, LanSimulation, NetworkParameters, _Host
from repro.net.simulator import EventLoop
from repro.obs.metrics import MetricsRegistry
from repro.shard.ring import DEFAULT_VNODES, ShardMap


def shard_names(num_shards: int) -> list[str]:
    """Default shard names: ``s0 .. s{S-1}``."""
    if num_shards < 1:
        raise ValueError("need at least one shard")
    return [f"s{i}" for i in range(num_shards)]


def sharded_configs(base: GroupConfig, names: Sequence[str]) -> list[GroupConfig]:
    """One :class:`GroupConfig` per shard: *base* with ``group_tag`` set
    to the shard name, so same-seed groups derive disjoint keys, coins,
    and RNG streams."""
    return [replace(base, group_tag=name) for name in names]


class ShardedLanSimulation:
    """S LAN simulations, one per shard, on a shared event loop.

    Args:
        num_shards: how many groups (or pass explicit ``names``).
        names: shard names; default ``s0..s{S-1}``.  They double as
            ``group_tag`` values and metric ``group`` labels.
        config: per-group template (``group_tag`` is overwritten per
            shard); default ``GroupConfig(n)``.
        n: group size when no config template is given.
        seed: master seed shared by every shard -- the per-shard
            ``group_tag`` keeps their key/coin/RNG streams disjoint.
        colocate: all shards share the same ``n`` hosts' resources
            instead of each getting its own machines (see module doc).
        fault_plans: per-shard fault plans, keyed by shard index;
            missing entries run failure-free.  This is how the
            partition e2e test isolates one shard's group while the
            others keep ordering.
        params, ipsec, jitter_s, tie_break_seed, vnodes: as in
            :class:`LanSimulation` / :class:`ShardMap`.
    """

    def __init__(
        self,
        num_shards: int | None = None,
        *,
        names: Sequence[str] | None = None,
        config: GroupConfig | None = None,
        n: int = 4,
        seed: int = 0,
        colocate: bool = False,
        fault_plans: dict[int, FaultPlan] | None = None,
        params: NetworkParameters = LAN_2006,
        ipsec: bool = True,
        jitter_s: float = 0.0,
        tie_break_seed: int | None = None,
        vnodes: int = DEFAULT_VNODES,
    ):
        if names is None:
            if num_shards is None:
                raise ValueError("pass num_shards or names=...")
            names = shard_names(num_shards)
        elif num_shards is not None and num_shards != len(names):
            raise ValueError(f"num_shards={num_shards} but {len(names)} names")
        base = config if config is not None else GroupConfig(n)
        self.map = ShardMap(names, vnodes=vnodes)
        self.seed = seed
        self.colocate = colocate
        self.loop = EventLoop(
            tie_break_rng=(
                random.Random(f"{seed}/tie/{tie_break_seed}")
                if tie_break_seed is not None
                else None
            )
        )
        shared_hosts = (
            [_Host() for _ in range(base.num_processes)] if colocate else None
        )
        fault_plans = fault_plans or {}
        self.shards: list[LanSimulation] = []
        for index, shard_config in enumerate(sharded_configs(base, names)):
            self.shards.append(
                LanSimulation(
                    shard_config,
                    params=params,
                    ipsec=ipsec,
                    seed=seed,
                    fault_plan=fault_plans.get(index),
                    jitter_s=jitter_s,
                    loop=self.loop,
                    hosts=shared_hosts,
                )
            )

    @property
    def names(self) -> tuple[str, ...]:
        return self.map.names

    @property
    def config(self) -> GroupConfig:
        """Shard 0's config (every shard shares the same knobs)."""
        return self.shards[0].config

    def __len__(self) -> int:
        return len(self.shards)

    def shard(self, key_or_index: "str | bytes | int") -> LanSimulation:
        """The simulation owning a key (or at an explicit index)."""
        if isinstance(key_or_index, int):
            return self.shards[key_or_index]
        return self.shards[self.map.owner(key_or_index)]

    # -- observability -------------------------------------------------------

    def enable_metrics(self) -> list[list[MetricsRegistry]]:
        """Enable every shard's metrics and return its registries, per
        shard in pid order.  Each group records into registries of its
        own, told apart by their ``group=<name>`` const label."""
        return [sim.enable_metrics() for sim in self.shards]

    def attach_checkers(self, **kwargs) -> list:
        """One :class:`~repro.check.invariants.InvariantChecker` per
        shard, chained on the shared loop's ``on_event`` hook so every
        group's invariants are asserted after every event.  Call before
        creating protocol instances."""
        from repro.check.invariants import InvariantChecker

        return [InvariantChecker(sim, **kwargs) for sim in self.shards]

    def check_all(self, checkers: list) -> None:
        """Final full sweep across every shard's checker."""
        for checker in checkers:
            checker.check_all()

    # -- driving -------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.loop.now

    def run(
        self,
        until=None,
        max_time: float = 600.0,
        max_events: int | None = None,
    ) -> str:
        """Advance the shared loop; see :meth:`EventLoop.run`."""
        return self.loop.run(until=until, max_time=max_time, max_events=max_events)

"""Sharded multi-group RITAS: S independent groups behind one routing tier.

One RITAS group totally orders every operation through a single
atomic-broadcast stream; that stream is the scalability ceiling.  This
package runs **S independent groups (shards)** and routes each KV key
to exactly one owning group:

- :mod:`repro.shard.ring` -- the deterministic consistent-hash
  :class:`ShardMap` of keys onto shards (stable under ring changes);
- the TCP runtime needs no class of its own here: a process in S
  groups runs one :class:`~repro.transport.tcp.RitasNode` per group,
  each with its own listener, peer mesh and keystore;
- :mod:`repro.shard.router` -- :class:`ShardRouter`: key -> owning
  shard's services, with structured :class:`WrongShardError` /
  :class:`CrossShardError` redirect hints (cross-shard commits are
  forbidden and measured, per ROADMAP).

Isolation is cryptographic, not just structural: every shard's config
carries a distinct ``GroupConfig.group_tag``, scoping its MAC keys,
shared-coin secrets, and RNG streams away from the other groups.

See docs/SHARDING.md for usage and DESIGN.md §14 for the architecture.
"""

from repro.shard.ring import DEFAULT_VNODES, ShardMap
from repro.shard.router import (
    SINGLE_SHARD_NAME,
    CrossShardError,
    ShardRouter,
    WrongShardError,
)

__all__ = [
    "DEFAULT_VNODES",
    "SINGLE_SHARD_NAME",
    "CrossShardError",
    "ShardMap",
    "ShardRouter",
    "WrongShardError",
]

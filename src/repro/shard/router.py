"""The routing tier: client operations onto the owning shard.

A gateway process hosts the replicated services of one or more shards
(usually all of them, one :class:`~repro.transport.tcp.RitasNode` per
group; see :func:`~repro.gateway.server.attach_router`) and routes
every client operation by its key through the
:class:`~repro.shard.ring.ShardMap`.  Two failure shapes surface as
structured errors instead of silent misrouting:

- **wrong shard** -- the key's owner is a shard this process does not
  host.  The error carries the owner's index and name, so the gateway
  can answer the client with a redirect hint (``wrong-shard`` status)
  rather than a dead end.
- **cross-shard** -- a multi-key operation's keys span more than one
  shard.  Per the ROADMAP this is *forbidden and measured* first (no
  two-shard ordered commit yet): the error names every owner involved
  so clients and dashboards see exactly what a future cross-shard
  commit would have to coordinate.

The router is deliberately ignorant of what a "service" is -- it maps
``shard index -> anything`` -- so it carries
:class:`~repro.gateway.server.GatewayServices` without importing the
gateway (no dependency cycle), and tests can route onto plain dicts.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.shard.ring import ShardMap

#: Shard-map name used when a single unsharded service set is wrapped.
SINGLE_SHARD_NAME = "s0"


class WrongShardError(Exception):
    """The key's owning shard is not hosted here.

    Attributes:
        owner_index / owner_name: who does own the key -- the redirect
            hint the gateway forwards to the client.
    """

    def __init__(self, key: str, owner_index: int, owner_name: str):
        super().__init__(
            f"key {key!r} is owned by shard {owner_name!r} "
            f"(index {owner_index}), not hosted by this gateway"
        )
        self.key = key
        self.owner_index = owner_index
        self.owner_name = owner_name


class CrossShardError(WrongShardError):
    """A multi-key operation spans shards: forbidden (and measured).

    ``owner_index``/``owner_name`` carry the *first* key's owner as the
    redirect hint; :attr:`owners` lists every ``(index, name)`` involved.
    """

    def __init__(self, keys: Sequence[str], owners: Sequence[tuple[int, str]]):
        distinct = sorted(set(owners))
        Exception.__init__(
            self,
            f"cross-shard operation forbidden: {len(keys)} keys span "
            f"shards {[name for _, name in distinct]!r}",
        )
        self.key = keys[0] if keys else ""
        self.owner_index, self.owner_name = owners[0] if owners else (0, "")
        self.owners = distinct


class ShardRouter:
    """Key -> owning shard -> that shard's (locally hosted) services.

    Args:
        shard_map: the group's consistent-hash ring.  Index order must
            match the hosting transport's shard order
            (:attr:`RitasNode.stacks <repro.transport.tcp.RitasNode.stacks>`).
        services: per-shard service objects, keyed by shard index.  A
            routing-only front (hosting nothing) passes ``{}``; a full
            host passes one entry per shard.
    """

    def __init__(self, shard_map: ShardMap, services: Mapping[int, Any]):
        for index in services:
            if not 0 <= index < len(shard_map):
                raise ValueError(
                    f"hosted shard index {index} out of range for "
                    f"{len(shard_map)} shards"
                )
        self.map = shard_map
        self.services: dict[int, Any] = dict(services)
        #: Operations refused for landing on an unhosted shard.
        self.wrong_shard_total = 0
        #: Multi-key operations refused for spanning shards.
        self.cross_shard_total = 0

    @classmethod
    def single(cls, services: Any) -> "ShardRouter":
        """Wrap one unsharded service set: every key owned, one shard."""
        return cls(ShardMap([SINGLE_SHARD_NAME]), {0: services})

    @property
    def is_single(self) -> bool:
        return len(self.map) == 1

    @property
    def hosted(self) -> list[int]:
        """Hosted shard indexes, ascending."""
        return sorted(self.services)

    def name_of(self, index: int) -> str:
        return self.map.names[index]

    def owner(self, key: str | bytes) -> int:
        return self.map.owner(key)

    def route(self, key: str) -> tuple[int, Any]:
        """The ``(shard index, services)`` owning *key*.

        Raises:
            WrongShardError: the owner is not hosted here (counted).
        """
        index = self.map.owner(key)
        services = self.services.get(index)
        if services is None:
            self.wrong_shard_total += 1
            raise WrongShardError(key, index, self.map.names[index])
        return index, services

    def route_many(self, keys: Sequence[str]) -> tuple[int, Any]:
        """Route a multi-key operation; every key must share one hosted
        owner.

        Raises:
            CrossShardError: the keys span shards (counted); the error
                lists every owner.
            WrongShardError: single owner, but not hosted here.
        """
        if not keys:
            raise ValueError("route_many needs at least one key")
        if len(keys) > 1:
            owners = [(index, self.map.names[index]) for index in map(self.map.owner, keys)]
            if len({index for index, _ in owners}) > 1:
                self.cross_shard_total += 1
                raise CrossShardError(keys, owners)
        return self.route(keys[0])

    def spread(self, keys: Iterable[str]) -> dict[str, int]:
        """Keys-per-shard histogram (delegates to the map)."""
        return self.map.spread(keys)

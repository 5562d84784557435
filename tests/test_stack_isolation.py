"""Two stacks in one process must not share any protocol state.

A process in several groups (one :class:`repro.transport.tcp.RitasNode`
per group) runs several stacks per OS process.  Everything that used to
be effectively process-global -- dealer key derivation, shared-coin
secrets, RNG streams, metrics registries -- must be scoped per group,
or co-hosted groups could forge each other's MACs, bias each other's
coins, or cross-pollinate metrics.  These are the regression tests for
that audit.
"""

from repro.core.config import GroupConfig
from repro.crypto.coin import SharedCoinDealer
from repro.crypto.keys import TrustedDealer
from repro.net.network import LanSimulation


def default_keystores(configs, seed, process_id):
    """The keystores process *process_id* is dealt for each group in
    *configs* from one master *seed*, scoped by the group's tag."""
    return [
        TrustedDealer(
            config.num_processes, seed=config.scoped_seed_bytes(str(seed).encode())
        ).keystore_for(process_id)
        for config in configs
    ]


class TestKeyScoping:
    def test_group_tag_scopes_dealer_seeds(self):
        """Same master seed, different tags -> disjoint pairwise keys;
        same tag -> the same keys on every process (still one group)."""
        a, b = (GroupConfig(4, group_tag=tag) for tag in ("a", "b"))
        ks_a0, ks_b0 = default_keystores([a, b], seed=1, process_id=0)
        ks_a1, ks_b1 = default_keystores([a, b], seed=1, process_id=1)
        # Within a shard, the 0<->1 pairwise key matches at both ends...
        assert ks_a0.key_for(1) == ks_a1.key_for(0)
        assert ks_b0.key_for(1) == ks_b1.key_for(0)
        # ...but the two shards' keys have nothing in common.
        assert ks_a0.key_for(1) != ks_b0.key_for(1)

    def test_untagged_derivation_is_the_legacy_one(self):
        """group_tag='' must reproduce the exact pre-sharding keys, or
        mixed sharded/unsharded deployments would split-brain."""
        config = GroupConfig(4)
        (scoped,) = default_keystores([config], seed=7, process_id=2)
        legacy = TrustedDealer(4, seed=b"7").keystore_for(2)
        assert scoped.key_for(0) == legacy.key_for(0)
        assert scoped.key_for(3) == legacy.key_for(3)

    def test_scoped_seeds_differ_across_shards(self):
        a, b = (GroupConfig(4, group_tag=tag) for tag in ("a", "b"))
        assert a.scoped_seed("x") != b.scoped_seed("x")
        assert a.scoped_seed_bytes(b"x") != b.scoped_seed_bytes(b"x")

    def test_empty_tag_is_byte_identical(self):
        """The unsharded path derives exactly the legacy seeds."""
        config = GroupConfig(4)
        assert config.scoped_seed("x") == "x"
        assert config.scoped_seed_bytes(b"x") == b"x"


class TestCoinScoping:
    def test_scoped_secrets_give_independent_coin_sequences(self):
        a, b = (GroupConfig(4, group_tag=tag) for tag in ("a", "b"))
        coin_a = SharedCoinDealer(
            secret=a.scoped_seed("ritas-coin/1/4").encode()
        ).coin_for(0)
        coin_b = SharedCoinDealer(
            secret=b.scoped_seed("ritas-coin/1/4").encode()
        ).coin_for(0)
        tosses_a = [coin_a.toss(b"inst", r) for r in range(64)]
        tosses_b = [coin_b.toss(b"inst", r) for r in range(64)]
        # Identical instance tags and rounds, different shard secrets:
        # the sequences must diverge (64 equal fair tosses ~ 2^-64).
        assert tosses_a != tosses_b

    def test_stack_rngs_diverge_across_shards(self):
        """Two same-seed sims differing only in group_tag seed their
        stacks' RNG streams differently -- co-hosted groups never share
        (or repeat) each other's coin randomness."""

        def streams(tag):
            sim = LanSimulation(GroupConfig(4, group_tag=tag), seed=3)
            return [sim.stacks[pid].rng.getrandbits(64) for pid in range(4)]

        assert streams("a") != streams("b")
        # Same tag, same seed -> same streams (replay determinism).
        assert streams("a") == streams("a")


class TestMetricsIsolation:
    def test_two_groups_registries_share_no_series(self):
        """Two same-seed groups record into registries of their own: no
        series appears in both, and each carries its group's label."""
        registries = []
        for tag in ("s0", "s1"):
            sim = LanSimulation(GroupConfig(4, group_tag=tag), seed=5)
            registries.append(sim.enable_metrics()[0])
            for stack in sim.stacks:
                stack.create("ab", ("t",))
            ab = sim.stacks[0].instance_at(("t",))
            ab.broadcast(b"m")
            assert sim.run(until=lambda ab=ab: ab.delivered_count, max_time=60.0) == "until"
        a, b = registries
        series = [{(m.name, m.labels) for m in registry.metrics()} for registry in (a, b)]
        assert series[0] and series[1]
        assert not series[0] & series[1]
        assert {dict(m.labels)["group"] for m in a.metrics()} == {"s0"}
        assert {dict(m.labels)["group"] for m in b.metrics()} == {"s1"}

"""Two stacks in one process must not share any protocol state.

A process in several groups (one :class:`repro.transport.tcp.RitasNode`
per group) runs several stacks per OS process.  Everything that used to
be effectively process-global -- dealer key derivation, shared-coin
secrets, RNG streams, metrics registries -- must be per group, or
co-hosted groups could forge each other's MACs, bias each other's
coins, or cross-pollinate metrics.  Each group is dealt from a seed (or
keystore) of its own; these are the regression tests for that audit.
"""

from repro.core.config import GroupConfig
from repro.core.stack import Stack
from repro.crypto.keys import TrustedDealer
from repro.net.network import LanSimulation
from repro.transport.tcp import PeerAddress, RitasNode


class TestKeyScoping:
    def test_seeds_scope_dealer_keys(self):
        """Different seeds -> disjoint pairwise keys; one seed -> the
        same keys on every process (still one group)."""
        a, b = (TrustedDealer(4, seed=seed) for seed in (b"1", b"2"))
        # Within a group, the 0<->1 pairwise key matches at both ends...
        assert a.keystore_for(0).key_for(1) == a.keystore_for(1).key_for(0)
        assert b.keystore_for(0).key_for(1) == b.keystore_for(1).key_for(0)
        # ...but the two groups' keys have nothing in common.
        assert a.keystore_for(0).key_for(1) != b.keystore_for(0).key_for(1)

    def test_untagged_derivation_is_the_legacy_one(self):
        """The default dealer's keys and the simulator's dealer derive
        exactly the keys of a plain seeded TrustedDealer, pinned by
        value: same-seed replays of every earlier run stay identical."""
        stack = Stack(GroupConfig(4), 0, outbox=lambda dest, data: None)
        assert stack.keystore.key_for(1).hex() == "12d3b81d50452f94be376b7be9d6e605"

        sim = LanSimulation(GroupConfig(4), seed=7)
        legacy = TrustedDealer(4, seed=b"7").keystore_for(2)
        assert sim.stacks[2].keystore.key_for(0) == legacy.key_for(0)
        assert sim.stacks[2].keystore.key_for(3) == legacy.key_for(3)
        assert sim.stacks[2].keystore.key_for(0).hex() == "d4a1bd781657675b3936cdbf1e9714e0"

    def test_empty_tag_is_byte_identical(self):
        """The simulator's RNG and shared coin, and a seeded node's RNG
        and shared coin, derive exactly these values: same-seed replays
        of every earlier run stay byte-identical."""
        sim = LanSimulation(GroupConfig(4), seed=7)
        assert [sim.stacks[pid].rng.getrandbits(64) for pid in range(2)] == [
            1098120365964051177,
            3707869224650789142,
        ]
        sim = LanSimulation(GroupConfig(4, bc_coin="shared"), seed=7)
        assert [sim.stacks[0].coin.toss(b"inst", r) for r in range(16)] == [
            1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0,
        ]

        blank = [PeerAddress("127.0.0.1", 0)] * 4
        keystore = TrustedDealer(4, seed=b"x").keystore_for(1)
        node = RitasNode(GroupConfig(4), 1, blank, keystore, seed=42)
        assert node.rng.getrandbits(64) == 17302707712391795216
        node = RitasNode(GroupConfig(4, bc_coin="shared"), 1, blank, keystore, seed=42)
        assert [node.stack.coin.toss(b"inst", r) for r in range(16)] == [
            0, 0, 1, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0,
        ]


class TestCoinScoping:
    def test_scoped_secrets_give_independent_coin_sequences(self):
        def tosses(seed):
            sim = LanSimulation(GroupConfig(4, bc_coin="shared"), seed=seed)
            return [sim.stacks[0].coin.toss(b"inst", r) for r in range(64)]

        # Identical instance tags and rounds, different group seeds:
        # the sequences must diverge (64 equal fair tosses ~ 2^-64).
        assert tosses(1) != tosses(2)

    def test_stack_rngs_diverge_across_shards(self):
        """Two sims with different seeds seed their stacks' RNG streams
        differently -- co-hosted groups never share (or repeat) each
        other's coin randomness."""

        def streams(seed):
            sim = LanSimulation(GroupConfig(4), seed=seed)
            return [sim.stacks[pid].rng.getrandbits(64) for pid in range(4)]

        assert streams(3) != streams(4)
        # Same seed -> same streams (replay determinism).
        assert streams(3) == streams(3)


class TestMetricsIsolation:
    def test_two_groups_registries_share_no_series(self):
        """Two groups record into registries of their own: no series
        object appears in both, and one group's traffic never shows in
        the other's registry."""
        registries = []
        for seed, messages in ((5, [b"m"]), (6, [])):
            sim = LanSimulation(GroupConfig(4), seed=seed)
            registries.append(sim.enable_metrics()[0])
            for stack in sim.stacks:
                stack.create("ab", ("t",))
            ab = sim.stacks[0].instance_at(("t",))
            for message in messages:
                ab.broadcast(message)
            sim.run(until=lambda ab=ab: ab.delivered_count == len(messages), max_time=60.0)
            assert ab.delivered_count == len(messages)
        busy, idle = registries
        assert not {id(m) for m in busy.metrics()} & {id(m) for m in idle.metrics()}
        assert any(m.name.startswith("ritas_ab_") for m in busy.metrics())
        assert not any(m.name.startswith("ritas_ab_") for m in idle.metrics())

"""Two stacks in one process must not share any protocol state.

A sharded host (:meth:`repro.transport.tcp.RitasNode.add_shard`, the
sharded simulation) runs several stacks per OS process.  Everything that used to
be effectively process-global -- dealer key derivation, shared-coin
secrets, RNG streams, metrics registries -- must be scoped per stack,
or co-hosted groups could forge each other's MACs, bias each other's
coins, or cross-pollinate metrics.  These are the regression tests for
that audit.
"""

from repro.core.config import GroupConfig
from repro.crypto.coin import SharedCoinDealer
from repro.crypto.keys import TrustedDealer
from repro.net.network import LanSimulation
from repro.net.simulator import EventLoop
from repro.obs.metrics import MetricsRegistry
from repro.shard.sim import sharded_configs
from repro.transport.tcp import PeerAddress, RitasNode


def default_keystores(configs, seed, process_id):
    """The keystores a seeded host derives for *configs* added as
    shards (behind an unrelated shard 0 that brings its own keys)."""
    n = configs[0].num_processes
    node = RitasNode(
        GroupConfig(n, group_tag="host"),
        process_id,
        [PeerAddress("127.0.0.1", 0)] * n,
        TrustedDealer(n, seed=b"host").keystore_for(process_id),
        seed=seed,
    )
    return [node.add_shard(config).keystore for config in configs]


class TestKeyScoping:
    def test_group_tag_scopes_dealer_seeds(self):
        """Same master seed, different tags -> disjoint pairwise keys;
        same tag -> the same keys on every process (still one group)."""
        a, b = sharded_configs(GroupConfig(4), ["a", "b"])
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


class TestCoinScoping:
    def test_scoped_secrets_give_independent_coin_sequences(self):
        a, b = sharded_configs(GroupConfig(4), ["a", "b"])
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


class TestTwoStacksOneProcess:
    def test_two_groups_share_a_loop_without_interference(self):
        """The core regression: two same-seed groups on one EventLoop
        (one process), distinguished only by group_tag, both complete an
        AB burst and neither observes the other's traffic."""
        loop = EventLoop()
        sims = [
            LanSimulation(GroupConfig(4, group_tag=tag), seed=17, loop=loop)
            for tag in ("a", "b")
        ]
        logs = [[], []]
        for index, sim in enumerate(sims):
            for pid in sim.config.process_ids:
                ab = sim.stacks[pid].create("ab", ("t",))
                if pid == 0:
                    ab.on_deliver = lambda _i, d, log=logs[index]: log.append(
                        bytes(d.payload)
                    )
        for index, sim in enumerate(sims):
            for pid in sim.config.process_ids:
                stack = sim.stacks[pid]
                with stack.coalesce():
                    stack.instance_at(("t",)).broadcast(f"g{index}".encode())
        reason = loop.run(
            until=lambda: all(len(log) >= 4 for log in logs), max_time=60.0
        )
        assert reason == "until"
        assert set(logs[0]) == {b"g0"} and set(logs[1]) == {b"g1"}


class TestMetricsIsolation:
    def test_labeled_views_share_store_but_not_series(self):
        registry = MetricsRegistry(const_labels={"process": 0})
        view_a = registry.labeled(shard="a")
        view_b = registry.labeled(shard="b")
        view_a.counter("ops_total").inc()
        view_a.counter("ops_total").inc()
        view_b.counter("ops_total").inc()
        by_shard = {
            metric["labels"]["shard"]: metric["value"]
            for metric in registry.snapshot()
            if metric["name"] == "ops_total"
        }
        assert by_shard == {"a": 2, "b": 1}

    def test_nested_labels_compose(self):
        registry = MetricsRegistry()
        view = registry.labeled(shard="a").labeled(service="kv")
        view.counter("c").inc()
        (metric,) = [m for m in registry.snapshot() if m["name"] == "c"]
        assert metric["labels"]["shard"] == "a"
        assert metric["labels"]["service"] == "kv"

"""Sharded LAN simulation: S groups on one loop, isolated but interleaved."""

from repro.core.config import GroupConfig
from repro.net.faults import FaultPlan, Partition
from repro.shard.sim import ShardedLanSimulation, shard_names, sharded_configs


def seed_burst(sharded, k_per_shard=8, tag=("t",)):
    """Create one AB per stack and broadcast ``k_per_shard`` messages
    per shard; returns a per-shard delivered counter list."""
    delivered = [0] * len(sharded)

    def observer(index):
        def observe(_instance, _delivery):
            delivered[index] += 1

        return observe

    for index, sim in enumerate(sharded.shards):
        for pid in sim.config.process_ids:
            ab = sim.stacks[pid].create("ab", tag)
            if pid == 0:
                ab.on_deliver = observer(index)
    payload = b"m"
    for sim in sharded.shards:
        for pid in sim.config.process_ids:
            stack = sim.stacks[pid]
            with stack.coalesce():
                for _ in range(k_per_shard // sim.config.num_processes):
                    stack.instance_at(tag).broadcast(payload)
    return delivered


class TestConfigs:
    def test_shard_names_default(self):
        assert shard_names(3) == ["s0", "s1", "s2"]

    def test_sharded_configs_set_distinct_tags(self):
        configs = sharded_configs(GroupConfig(4), ["a", "b"])
        assert [c.group_tag for c in configs] == ["a", "b"]
        assert all(c.num_processes == 4 for c in configs)

    def test_scoped_seeds_differ_across_shards(self):
        a, b = sharded_configs(GroupConfig(4), ["a", "b"])
        assert a.scoped_seed("x") != b.scoped_seed("x")
        assert a.scoped_seed_bytes(b"x") != b.scoped_seed_bytes(b"x")

    def test_empty_tag_is_byte_identical(self):
        """The unsharded path derives exactly the legacy seeds."""
        config = GroupConfig(4)
        assert config.scoped_seed("x") == "x"
        assert config.scoped_seed_bytes(b"x") == b"x"


class TestProgress:
    def test_every_shard_orders_its_own_stream(self):
        sharded = ShardedLanSimulation(3, n=4, seed=5)
        delivered = seed_burst(sharded, k_per_shard=8)
        reason = sharded.run(
            until=lambda: all(d >= 8 for d in delivered), max_time=60.0
        )
        assert reason == "until"
        assert delivered == [8, 8, 8]

    def test_shards_order_independently(self):
        """Shard streams are independent total orders: each shard's
        delivery log contains exactly its own broadcasts."""
        sharded = ShardedLanSimulation(2, n=4, seed=9)
        logs = [[] for _ in range(2)]
        for index, sim in enumerate(sharded.shards):
            for pid in sim.config.process_ids:
                ab = sim.stacks[pid].create("ab", ("t",))
                if pid == 0:
                    ab.on_deliver = lambda _i, d, log=logs[index]: log.append(
                        bytes(d.payload)
                    )
        for index, sim in enumerate(sharded.shards):
            stack = sim.stacks[0]
            with stack.coalesce():
                for j in range(4):
                    stack.instance_at(("t",)).broadcast(
                        f"shard{index}-{j}".encode()
                    )
        reason = sharded.run(
            until=lambda: all(len(log) >= 4 for log in logs), max_time=60.0
        )
        assert reason == "until"
        for index, log in enumerate(logs):
            assert all(m.startswith(f"shard{index}-".encode()) for m in log)

    def test_same_seed_replay_is_deterministic(self):
        def run_once():
            sharded = ShardedLanSimulation(2, n=4, seed=13)
            delivered = seed_burst(sharded, k_per_shard=8)
            reason = sharded.run(
                until=lambda: all(d >= 8 for d in delivered), max_time=60.0
            )
            assert reason == "until"
            return sharded.now, sharded.loop.events_processed

        assert run_once() == run_once()


class TestInvariants:
    def test_per_shard_checkers_coexist(self):
        """S checkers chain on one loop's on_event hook; every shard's
        invariants are asserted after every event."""
        sharded = ShardedLanSimulation(2, n=4, seed=7)
        checkers = sharded.attach_checkers()
        assert len(checkers) == 2
        delivered = seed_burst(sharded, k_per_shard=4)
        reason = sharded.run(
            until=lambda: all(d >= 4 for d in delivered), max_time=60.0
        )
        assert reason == "until"
        sharded.check_all(checkers)
        for checker in checkers:
            assert checker.checks_run > 0


class TestMetrics:
    def test_shard_label_separates_series(self):
        """Every shard records into registries of its own, one per host
        position, each series under the shard's ``group`` label."""
        sharded = ShardedLanSimulation(2, n=4, seed=3)
        registries = sharded.enable_metrics()
        assert [len(shard) for shard in registries] == [4, 4]
        delivered = seed_burst(sharded, k_per_shard=4)
        reason = sharded.run(
            until=lambda: all(d >= 4 for d in delivered), max_time=60.0
        )
        assert reason == "until"
        for name, shard in zip(sharded.names, registries):
            snapshot = shard[0].snapshot()
            assert snapshot
            assert {metric["labels"]["group"] for metric in snapshot} == {name}

    def test_restart_restamps_only_its_own_shard(self):
        """Restarting one shard's process re-stamps that shard's metrics
        with the new incarnation; a co-hosted shard's stay untouched."""
        sharded = ShardedLanSimulation(2, n=4, seed=3)
        sharded.enable_metrics()
        delivered = seed_burst(sharded, k_per_shard=4)
        reason = sharded.run(
            until=lambda: all(d >= 4 for d in delivered), max_time=60.0
        )
        assert reason == "until"
        sharded.shards[0].restart_process(1)
        restarted = sharded.shards[0].metric_registries()[1].snapshot()
        sibling = sharded.shards[1].metric_registries()[1].snapshot()
        assert restarted and sibling
        assert all(record.get("incarnation") == 1 for record in restarted)
        assert all("incarnation" not in record for record in sibling)


class TestPartitionIsolation:
    def test_partitioned_shard_stalls_while_others_progress(self):
        """The e2e sharding claim: a 2-2 split inside shard 1's group
        denies it a quorum, but shards 0 and 2 -- same hosts timeline,
        same loop -- keep ordering; after the heal, shard 1 catches up
        with nothing lost."""
        heal_at = 0.080
        plans = {1: FaultPlan(partitions=[Partition(0.0, heal_at, ((0, 1), (2, 3)))])}
        sharded = ShardedLanSimulation(3, n=4, seed=21, fault_plans=plans)
        delivered = seed_burst(sharded, k_per_shard=8)
        # The healthy shards finish their bursts...
        reason = sharded.run(
            until=lambda: delivered[0] >= 8 and delivered[2] >= 8,
            max_time=heal_at,
        )
        assert reason == "until"
        # ...strictly while shard 1 is still split (virtual time proves
        # it: the partition has not healed yet).
        assert sharded.now < heal_at
        assert delivered[1] < 8
        # After the heal, shard 1 completes the same burst.
        reason = sharded.run(
            until=lambda: delivered[1] >= 8, max_time=60.0
        )
        assert reason == "until"
        assert delivered == [8, 8, 8]

"""Network partitions: safety throughout, liveness after the heal."""

import pytest

from repro.check.invariants import OrderLog
from repro.net.faults import FaultPlan, Partition
from repro.net.network import LanSimulation


class TestPartitionModel:
    def test_separates_within_window_only(self):
        p = Partition(start=1.0, end=2.0, islands=((0, 1), (2, 3)))
        assert p.separates(0, 2, 1.5)
        assert not p.separates(0, 1, 1.5)
        assert not p.separates(0, 2, 0.5)
        assert not p.separates(0, 2, 2.0)

    def test_unlisted_process_is_isolated(self):
        p = Partition(start=0.0, end=1.0, islands=((0, 1, 2),))
        assert p.separates(0, 3, 0.5)
        assert p.separates(3, 2, 0.5)

    def test_clear_time_chains_partitions(self):
        plan = FaultPlan(
            partitions=[
                Partition(0.0, 1.0, ((0,), (1,))),
                Partition(1.0, 2.0, ((0,), (1,))),
            ]
        )
        assert plan.partition_clear_time(0, 1, 0.5) == 2.0
        assert plan.partition_clear_time(0, 1, 2.5) == 2.5

    def test_unrelated_pair_unaffected(self):
        plan = FaultPlan(partitions=[Partition(0.0, 1.0, ((0, 2, 3), (1,)))])
        assert not plan.is_partitioned(0, 2, 0.5)
        assert plan.is_partitioned(0, 1, 0.5)


class TestProtocolsAcrossPartitions:
    def test_consensus_stalls_during_partition_and_finishes_after(self):
        """A 2-2 split denies any quorum; the protocol simply waits (no
        timeout to misfire) and completes after the heal."""
        heal_at = 0.050
        plan = FaultPlan(
            partitions=[Partition(0.0, heal_at, ((0, 1), (2, 3)))]
        )
        sim = LanSimulation(n=4, seed=31, fault_plan=plan)
        done = [None] * 4
        for pid, stack in enumerate(sim.stacks):
            bc = stack.create("bc", ("p",))
            bc.on_deliver = lambda _i, v, pid=pid: done.__setitem__(pid, v)
        for stack in sim.stacks:
            stack.instance_at(("p",)).propose(1)
        # Nothing can decide while split (n-f = 3 > any island).
        sim.run(until=lambda: any(v is not None for v in done), max_time=heal_at)
        assert all(v is None for v in done)
        reason = sim.run(until=lambda: all(v is not None for v in done), max_time=30)
        assert reason == "until"
        assert done == [1, 1, 1, 1]
        assert sim.now > heal_at

    def test_minority_partition_does_not_block_majority(self):
        """Isolating one process (= a transient crash, within f) leaves
        the other three able to finish during the partition."""
        plan = FaultPlan(partitions=[Partition(0.0, 10.0, ((0, 1, 2), (3,)))])
        sim = LanSimulation(n=4, seed=32, fault_plan=plan)
        done = [None] * 4
        for pid, stack in enumerate(sim.stacks):
            bc = stack.create("bc", ("p",))
            bc.on_deliver = lambda _i, v, pid=pid: done.__setitem__(pid, v)
        for stack in sim.stacks:
            stack.instance_at(("p",)).propose(0)
        reason = sim.run(
            until=lambda: all(done[pid] is not None for pid in (0, 1, 2)),
            max_time=5.0,
        )
        assert reason == "until"
        assert sim.now < 10.0  # decided while p3 was still cut off

    def test_isolated_process_catches_up_after_heal(self):
        plan = FaultPlan(partitions=[Partition(0.0, 0.050, ((0, 1, 2), (3,)))])
        sim = LanSimulation(n=4, seed=33, fault_plan=plan)
        orders = {pid: [] for pid in range(4)}
        for pid, stack in enumerate(sim.stacks):
            ab = stack.create("ab", ("a",))
            ab.on_deliver = lambda _i, d, pid=pid: orders[pid].append(d.msg_id)
        for pid in range(3):
            sim.stacks[pid].instance_at(("a",)).broadcast(b"m%d" % pid)
        reason = sim.run(
            until=lambda: all(len(o) == 3 for o in orders.values()), max_time=30
        )
        assert reason == "until"
        assert orders[3] == orders[0]  # same total order, just later

    def test_heal_mid_agreement_delivers_identically(self):
        """An AB burst submitted *before* a 2/2 split (no quorum on
        either side) must deliver in one identical total order on every
        replica once the split heals mid-agreement."""
        heal_at = 0.5
        plan = FaultPlan(partitions=[Partition(0.003, heal_at, ((0, 1), (2, 3)))])
        sim = LanSimulation(n=4, seed=35, fault_plan=plan)
        order = OrderLog()
        for stack in sim.stacks:
            stack.stats.subscribe(order, OrderLog.KINDS)
            stack.create("ab", ("a",))
        for pid in range(4):
            for index in range(3):
                sim.stacks[pid].instance_at(("a",)).broadcast(b"%d:%d" % (pid, index))

        def all_delivered():
            return all(len(order.of(pid, ("a",))) == 12 for pid in range(4))

        reason = sim.run(until=all_delivered, max_time=60)
        assert reason == "until"
        # The burst genuinely straddled the split: with no quorum in
        # either island, part of the order could only form post-heal.
        assert sim.now > heal_at
        logs = [order.of(pid, ("a",)) for pid in range(4)]
        assert logs[0] == logs[1] == logs[2] == logs[3]

    def test_no_frames_lost_across_partition(self):
        """The reliable channel delays, never drops: total frame counts
        match a partition-free run's deliveries."""
        plan = FaultPlan(partitions=[Partition(0.0, 0.020, ((0, 1), (2, 3)))])
        sim = LanSimulation(n=4, seed=34, fault_plan=plan)
        got = [None] * 4
        for pid, stack in enumerate(sim.stacks):
            rb = stack.create("rb", ("r",), sender=0)
            rb.on_deliver = lambda _i, v, pid=pid: got.__setitem__(pid, v)
        sim.stacks[0].instance_at(("r",)).broadcast(b"m")
        sim.run(until=lambda: all(v is not None for v in got), max_time=10)
        assert got == [b"m"] * 4

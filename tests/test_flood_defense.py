"""Flood defense: per-peer OOC accounting, misbehavior ledger and
quarantine, client backpressure, bounded send queues, and the flooding
adversary strategies (extension; not part of the paper's evaluation).

The safety bar throughout: no defense mechanism may ever punish an
honest process.  Fair eviction must not evict honest parked messages
under a flood, and honest failure-free runs must never file a single
misbehavior report.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary import STRATEGIES
from repro.apps.kv_store import ReplicatedKvStore
from repro.apps.lock_service import DistributedLockService
from repro.apps.state_machine import Command, ReplicatedStateMachine
from repro.core.config import GroupConfig
from repro.core.errors import BackpressureError, WireFormatError
from repro.core.ledger import OFFENSE_WEIGHTS, PROBATION_S, MisbehaviorLedger
from repro.core.mbuf import Mbuf
from repro.core.ooc import OocTable
from repro.core.sendq import BoundedSendQueue
from repro.core.wire import (
    PRIORITY_AGREEMENT,
    PRIORITY_BULK,
    PRIORITY_PAYLOAD,
    encode_batch,
    encode_frame,
    encode_value,
    frame_path,
    frame_path_key,
    frame_priority,
)
from repro.net.faults import FaultPlan
from repro.net.network import LanSimulation

from util import InstantNet, ShuffleNet

COMMON = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def mb(src, tail, size=40):
    """A parked-message stand-in addressed to a unique ghost path."""
    return Mbuf(src=src, path=("ab", "ghost", tail), mtype=0, payload=b"", wire_size=size)


# -- OOC table: per-peer quotas and fair eviction ------------------------------


class TestOocFairness:
    def test_quota_evicts_senders_own_oldest(self):
        table = OocTable(capacity=100, peer_quota=2)
        table.store(mb(1, 0))
        table.store(mb(1, 1))
        table.store(mb(1, 2))  # over quota: evicts ghost/0, not anything else
        assert table.pending_of(1) == 2
        assert not table.has_prefix(("ab", "ghost", 0))
        assert table.has_prefix(("ab", "ghost", 1))
        assert table.quota_evictions == 1
        assert table.evictions_by_src[1] == 1

    def test_capacity_evicts_fattest_sender(self):
        table = OocTable(capacity=4, peer_quota=0)
        table.store(mb(0, "honest"))
        for tail in range(3):
            table.store(mb(3, tail))
        table.store(mb(3, 99))  # at capacity: flooder (3 entries) pays, not src 0
        assert table.has_prefix(("ab", "ghost", "honest"))
        assert not table.has_prefix(("ab", "ghost", 0))
        assert table.evictions_by_src == {3: 1}

    def test_single_sender_degenerates_to_fifo(self):
        table = OocTable(capacity=3)
        for tail in range(4):
            table.store(mb(0, tail))
        assert not table.has_prefix(("ab", "ghost", 0))
        assert [table.has_prefix(("ab", "ghost", t)) for t in (1, 2, 3)] == [True] * 3

    def test_on_evict_hook_sees_reason(self):
        seen = []
        table = OocTable(capacity=2, peer_quota=1)
        table.on_evict = lambda mbuf, reason: seen.append((mbuf.src, reason))
        table.store(mb(5, 0))
        table.store(mb(5, 1))
        assert seen == [(5, "quota")]

    def test_byte_accounting_tracks_evictions(self):
        table = OocTable(capacity=2)
        table.store(mb(1, 1, size=60))
        table.store(mb(1, 2, size=60))
        table.store(mb(0, 0, size=100))  # at capacity: src 1 (fattest) pays
        assert table.bytes == 160
        assert table.peak_bytes == 160
        drained = table.drain_prefix(("ab", "ghost", 0))
        assert [m.wire_size for m in drained] == [100]
        assert table.bytes == 60

    @given(
        flood=st.lists(st.sampled_from([2, 3]), min_size=1, max_size=60),
        honest_at=st.integers(0, 59),
    )
    @settings(**COMMON)
    def test_flood_never_evicts_honest_entries(self, flood, honest_at):
        """Two flooders fill the table; the honest process parks two
        messages at an arbitrary point in the interleaving.  Fair
        eviction must only ever churn the flooders' entries."""
        table = OocTable(capacity=8, peer_quota=4)
        honest_paths = [("ab", "ghost", "h0"), ("ab", "ghost", "h1")]
        stored = 0
        for step, flooder in enumerate(flood):
            if step == min(honest_at, len(flood) - 1):
                for path in honest_paths:
                    table.store(Mbuf(src=0, path=path, mtype=0, payload=b"", wire_size=40))
                stored = 2
            table.store(mb(flooder, step))
        if not stored:
            for path in honest_paths:
                table.store(Mbuf(src=0, path=path, mtype=0, payload=b"", wire_size=40))
        assert all(table.has_prefix(path) for path in honest_paths)
        assert table.evictions_by_src.get(0, 0) == 0
        assert len(table) <= 8


# -- misbehavior ledger and quarantine -----------------------------------------


class TestLedger:
    def test_scores_accumulate_by_weight(self):
        ledger = MisbehaviorLedger(GroupConfig(4))
        ledger.report(1, "mac-failure")
        ledger.report(1, "ooc-quota")
        ledger.report(1, "unheard-of-offense")
        assert ledger.score(1) == OFFENSE_WEIGHTS["mac-failure"] + 0.25 + 1.0
        assert ledger.offenses(1)["mac-failure"] == 1

    def test_disabled_by_default(self):
        ledger = MisbehaviorLedger(GroupConfig(4))  # threshold 0.0
        assert not ledger.enabled
        for _ in range(100):
            assert ledger.report(2, "mac-failure") is False
        assert not ledger.quarantined(2)

    def test_threshold_enters_quarantine_once(self):
        config = GroupConfig(4, quarantine_threshold=3.0)
        ledger = MisbehaviorLedger(config, clock=lambda: 0.0)
        assert ledger.report(1, "mac-failure") is False  # score 2.0
        assert ledger.report(1, "mac-failure") is True  # score 4.0: enters
        assert ledger.report(1, "mac-failure") is False  # already inside
        assert ledger.quarantined(1)
        assert ledger.quarantined_ids() == [1]
        assert ledger.record(1).ever_quarantined

    def test_probational_release_halves_score(self):
        now = [0.0]
        config = GroupConfig(4, quarantine_threshold=3.0)
        ledger = MisbehaviorLedger(config, clock=lambda: now[0])
        ledger.report(1, "mac-failure")
        ledger.report(1, "mac-failure")
        assert ledger.quarantined(1)
        now[0] = PROBATION_S + 0.1
        assert not ledger.quarantined(1)  # probation expired
        assert ledger.score(1) == 2.0  # halved on release
        # One more offense crosses the (still-lowered) threshold again.
        assert ledger.report(1, "mac-failure") is True
        assert ledger.record(1).quarantines == 2


class TestStackQuarantine:
    def config(self, **kwargs):
        kwargs.setdefault("quarantine_threshold", 3.0)
        return GroupConfig(4, **kwargs)

    def test_report_guards_self_and_range(self):
        net = InstantNet(4, config=self.config())
        stack = net.stacks[0]
        assert stack.report_misbehavior(0, "mac-failure") is False
        assert stack.report_misbehavior(7, "mac-failure") is False
        assert stack.stats.misbehavior_reports == 0

    def test_garbage_frames_score_and_quarantine_sender(self):
        net = InstantNet(4, config=self.config())
        stack = net.stacks[0]
        for _ in range(4):
            stack.receive(3, b"\xffnot-a-frame")
        assert stack.ledger.score(3) >= 3.0
        assert stack.ledger.quarantined(3)
        assert stack.stats.quarantine_entries == 1
        # Quarantined traffic is now shed at demux, before decode.
        before = stack.stats.frames_quarantine_dropped
        stack.receive(3, encode_frame(("ab", 3, "msg", 0), 0, b"x"))
        assert stack.stats.frames_quarantine_dropped == before + 1
        assert len(stack.ooc) == 0

    def test_honest_runs_never_report(self):
        """The anti-slander bar: with quarantine armed, failure-free
        traffic on adversarial schedules files zero reports."""
        for seed in range(6):
            net = ShuffleNet(4, seed=seed, config=self.config())
            sessions = [stack.create("ab", ("ab",)) for stack in net.stacks]
            for pid, ab in enumerate(sessions):
                ab.broadcast(b"m%d" % pid)
            net.run()
            for stack in net.stacks:
                assert stack.stats.misbehavior_reports == 0, f"seed {seed}"
                assert stack.stats.quarantine_entries == 0


# -- client backpressure -------------------------------------------------------


class TestBackpressure:
    def config(self, cap=2):
        return GroupConfig(4, ab_pending_cap=cap)

    def test_broadcast_raises_at_cap(self):
        net = InstantNet(4, config=self.config(cap=2))
        sessions = [stack.create("ab", ("ab",)) for stack in net.stacks]
        ab = sessions[0]
        ab.broadcast(b"a")
        ab.broadcast(b"b")
        assert ab.pending_local == 2
        with pytest.raises(BackpressureError):
            ab.broadcast(b"c")
        assert net.stacks[0].stats.backpressure_signals == 1
        net.run()  # deliveries drain the window ...
        assert ab.pending_local == 0
        ab.broadcast(b"c")  # ... and admission reopens

    def test_try_submit_reports_rejection(self):
        net = InstantNet(4, config=self.config(cap=1))
        rsms = [
            ReplicatedStateMachine(stack.create("ab", ("app",)), _count_apply, 0)
            for stack in net.stacks
        ]
        assert rsms[0].try_submit(Command("add", [1])) is not None
        assert rsms[0].try_submit(Command("add", [2])) is None
        assert rsms[0].backpressured == 1
        net.run()
        assert rsms[0].try_submit(Command("add", [3])) is not None
        net.run()
        assert [rsm.state for rsm in rsms] == [4, 4, 4, 4]

    def test_kv_and_lock_try_variants(self):
        net = InstantNet(4, config=self.config(cap=1))
        kvs = [ReplicatedKvStore(stack.create("ab", ("kv",))) for stack in net.stacks]
        locks = [DistributedLockService(stack.create("ab", ("lk",))) for stack in net.stacks]
        assert kvs[0].try_put("k", b"v") is True
        assert kvs[0].try_put("k2", b"v") is False  # window full
        net.run()
        assert kvs[0].try_put("k2", b"v2") is True
        assert locks[1].try_acquire("m") is True
        assert locks[1].try_acquire("m2") is False  # window full
        net.run()
        assert all(kv.get("k") == b"v" for kv in kvs)
        assert all(lock.holder("m") is not None for lock in locks)


def _count_apply(state, command):
    total = state + command.args[0]
    return total, total


# -- bounded send queues -------------------------------------------------------


class TestBoundedSendQueue:
    def test_unbounded_is_plain_fifo(self):
        queue = BoundedSendQueue()
        for data in (b"a", b"b", b"c"):
            assert queue.push(data) == []
        assert [queue.pop(), queue.pop(), queue.pop()] == [b"a", b"b", b"c"]
        assert queue.pop() is None

    def test_overflow_sheds_lowest_priority_first(self):
        queue = BoundedSendQueue(max_frames=2)
        queue.push(b"payload", priority=PRIORITY_PAYLOAD)
        queue.push(b"vote1", priority=PRIORITY_AGREEMENT)
        shed = queue.push(b"vote2", priority=PRIORITY_AGREEMENT)
        assert shed == [b"payload"]
        assert queue.frames_shed == 1
        assert queue.shed_by_priority[PRIORITY_PAYLOAD] == 1
        assert [queue.pop(), queue.pop()] == [b"vote1", b"vote2"]

    def test_newcomer_shed_when_outranked(self):
        queue = BoundedSendQueue(max_frames=2)
        queue.push(b"vote1", priority=PRIORITY_AGREEMENT)
        queue.push(b"vote2", priority=PRIORITY_AGREEMENT)
        shed = queue.push(b"bulk", priority=PRIORITY_BULK)
        assert shed == [b"bulk"]
        assert [queue.pop(), queue.pop()] == [b"vote1", b"vote2"]

    def test_never_reorders_survivors(self):
        """Shedding removes frames but must preserve the relative order
        of everything that survives (per-pair FIFO is a protocol
        assumption)."""
        queue = BoundedSendQueue(max_frames=3)
        queue.push(b"p1", priority=PRIORITY_PAYLOAD)
        queue.push(b"v1", priority=PRIORITY_AGREEMENT)
        queue.push(b"p2", priority=PRIORITY_PAYLOAD)
        queue.push(b"v2", priority=PRIORITY_AGREEMENT)  # sheds p1
        assert [queue.pop(), queue.pop(), queue.pop()] == [b"v1", b"p2", b"v2"]

    def test_peaks_and_drain(self):
        queue = BoundedSendQueue(max_frames=10)
        for index in range(5):
            queue.push(bytes([index]) * 10, priority=PRIORITY_PAYLOAD)
        assert queue.peak_frames == 5 and queue.peak_bytes == 50
        assert len(queue.drain()) == 5
        assert queue.frames_shed == 0  # drain is delivery, not shedding


class TestFramePriority:
    def test_classes(self):
        assert frame_priority(encode_frame(("ab", 1, "msg", 0), 0, b"x")) == PRIORITY_PAYLOAD
        assert frame_priority(encode_frame(("ab", 1, "vect"), 0, b"x")) == PRIORITY_AGREEMENT
        assert frame_priority(encode_frame(("ab", 0, "mvc", "bc"), 2, [0])) == PRIORITY_AGREEMENT
        assert frame_priority(encode_frame(("rec", "st"), 0, b"x")) == PRIORITY_BULK
        assert frame_priority(encode_frame(("ckpt", 3), 1, b"x")) == PRIORITY_BULK
        assert frame_priority(b"\xffgarbage") == PRIORITY_BULK

    def test_batch_takes_member_maximum(self):
        payload = encode_frame(("ab", 1, "msg", 0), 0, b"x")
        vote = encode_frame(("ab", 0, "bc", 1), 1, 0)
        assert frame_priority(encode_batch([payload, payload])) == PRIORITY_PAYLOAD
        assert frame_priority(encode_batch([payload, vote])) == PRIORITY_AGREEMENT

    def test_frame_path_of_plain_frames(self):
        frame = encode_frame(("ab", 7, "msg"), 3, [b"payload", None])
        assert frame_path(frame_path_key(frame)) == ("ab", 7, "msg")
        assert frame_path_key(frame[:8]) is None
        assert frame_path_key(b"") is None
        assert frame_path_key(encode_batch([frame])) is None  # batches have no single path
        # A bool component passes the skeleton walk but not frame_path.
        bad = b"\x01" + encode_value([[True], 0, None])
        with pytest.raises(WireFormatError):
            frame_path(frame_path_key(bad))
        assert frame_priority(bad) == PRIORITY_BULK


# -- adversary strategies end to end -------------------------------------------


def _run_with_byzantine(strategy, commands=6, seed=11):
    config = GroupConfig(4, ooc_capacity=256, ooc_peer_quota=64)
    sim = LanSimulation(
        config=config, seed=seed, fault_plan=FaultPlan.with_byzantine(3, strategy)
    )
    delivered = [[] for _ in range(4)]
    for pid, stack in enumerate(sim.stacks):
        ab = stack.create("ab", ("ab",))

        def on_deliver(_instance, delivery, pid=pid):
            delivered[pid].append(delivery.payload)

        ab.on_deliver = on_deliver
        if pid < 3:
            for index in range(commands // 3):
                ab.broadcast(b"%d:%d" % (pid, index))
    done = lambda: all(len(delivered[pid]) >= commands for pid in range(3))  # noqa: E731
    sim.run(until=done, max_time=300.0)
    assert done(), f"{strategy}: honest group stalled ({[len(d) for d in delivered]})"
    assert delivered[0][:commands] == delivered[1][:commands] == delivered[2][:commands]
    return sim


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_group_survives_every_registered_strategy(strategy):
    _run_with_byzantine(strategy)


def test_ooc_flood_churns_only_the_flooder():
    sim = _run_with_byzantine("ooc-flood")
    for pid in range(3):
        ooc = sim.stacks[pid].ooc
        assert sum(ooc.evictions_by_src[src] for src in range(3)) == 0
        assert len(ooc) <= 256
    # The flood is visible in every honest ledger.
    assert all(sim.stacks[pid].ledger.score(3) > 0 for pid in range(3))


def test_bad_mac_convicts_the_sender():
    sim = _run_with_byzantine("bad-mac")
    # p3's own echo broadcasts never verify: every honest ledger holds
    # mac-failure offenses against p3 and nobody else.
    for pid in range(3):
        ledger = sim.stacks[pid].ledger
        assert ledger.offenses(3)["mac-failure"] > 0
        for honest in range(3):
            assert ledger.offenses(honest)["mac-failure"] == 0


def test_unknown_strategy_name_rejected():
    with pytest.raises(ValueError, match="unknown Byzantine strategy"):
        FaultPlan.with_byzantine(3, "no-such-strategy")

"""Flood defense: per-peer OOC quotas, the misbehavior ledger, client
backpressure, bounded send queues, and the flooding adversary
strategies (extension; not part of the paper's evaluation).

The safety bar throughout: no defense mechanism may ever punish an
honest process.  Quota eviction must not evict honest parked messages
under a flood, and honest failure-free runs must never file a single
misbehavior report.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary import (
    STRATEGIES,
    DuplicateStormReliableBroadcast,
    duplicate_storm_faultload,
)
from repro.apps.kv_store import ReplicatedKvStore
from repro.apps.state_machine import Command, ReplicatedStateMachine
from repro.core.config import GroupConfig
from repro.core.errors import BackpressureError, WireFormatError
from repro.core.ledger import OFFENSE_WEIGHTS, MisbehaviorLedger
from repro.core.mbuf import Mbuf
from repro.core.ooc import OocTable
from repro.core.reliable_broadcast import MSG_ECHO, MSG_INIT, MSG_PAYLOAD, MSG_READY
from repro.core.sendq import BoundedSendQueue
from repro.core.stack import ProtocolFactory, Stack
from repro.core.wire import (
    PRIORITY_AGREEMENT,
    PRIORITY_BULK,
    PRIORITY_PAYLOAD,
    channel_units,
    decode_batch_views,
    decode_frame_ex,
    encode_batch,
    encode_frame,
    encode_value,
    frame_path,
    frame_path_key,
    frame_priority,
)
from repro.crypto.hashing import hash_bytes
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
        table = OocTable(2)
        table.store(mb(1, 0))
        table.store(mb(1, 1))
        table.store(mb(1, 2))  # over quota: evicts ghost/0, not anything else
        assert not table.has_prefix(("ab", "ghost", 0))
        assert table.has_prefix(("ab", "ghost", 1))
        assert table.evictions == 1
        assert table.evictions_by_src[1] == 1
        assert [(m.src, m.path) for m in table.drain_prefix(())] == [
            (1, ("ab", "ghost", 1)),
            (1, ("ab", "ghost", 2)),
        ]

    def test_single_sender_degenerates_to_fifo(self):
        table = OocTable(3)
        for tail in range(4):
            table.store(mb(0, tail))
        assert not table.has_prefix(("ab", "ghost", 0))
        assert [table.has_prefix(("ab", "ghost", t)) for t in (1, 2, 3)] == [True] * 3

    def test_on_evict_hook_sees_victim(self):
        seen = []
        table = OocTable(1)
        table.on_evict = lambda mbuf: seen.append((mbuf.src, mbuf.path))
        table.store(mb(3, 0))
        table.store(mb(3, 1))
        assert seen == [(3, ("ab", "ghost", 0))]

    def test_byte_accounting_tracks_evictions(self):
        table = OocTable(2)
        table.store(mb(1, 1, size=60))
        table.store(mb(1, 2, size=60))
        table.store(mb(0, 0, size=100))
        table.store(mb(1, 3, size=50))  # src 1 at quota: its ghost/1 goes
        assert table.bytes == 210
        assert table.peak_bytes == 220
        drained = table.drain_prefix(("ab", "ghost", 0))
        assert [m.wire_size for m in drained] == [100]
        assert table.bytes == 110

    @pytest.mark.parametrize("n, capacity", [(4, 8), (7, 28), (4, 250)])
    @given(data=st.data())
    @settings(**COMMON)
    def test_flood_never_evicts_honest_entries(self, n, capacity, data):
        """Every other process floods, at least ``capacity`` frames in
        all (so some flooder overruns its quota); the honest process 0
        parks two messages at an arbitrary point in the interleaving.  The
        derived quota (capacity // n) must only ever churn the
        flooders' entries, and the table never exceeds its capacity."""
        flood = data.draw(
            st.lists(st.integers(1, n - 1), min_size=capacity, max_size=3 * capacity)
        )
        honest_at = data.draw(st.integers(0, len(flood) - 1))
        table = OocTable(capacity // n)  # as Stack derives it
        honest_paths = [("ab", "ghost", "h0"), ("ab", "ghost", "h1")]
        for step, flooder in enumerate(flood):
            if step == honest_at:
                for path in honest_paths:
                    table.store(Mbuf(src=0, path=path, mtype=0, payload=b"", wire_size=40))
            table.store(mb(flooder, step))
            assert len(table) <= capacity
        assert all(table.has_prefix(path) for path in honest_paths)
        assert table.evictions_by_src.get(0, 0) == 0
        parked = Counter(mbuf.src for mbuf in table.drain_prefix(()))
        assert all(parked[src] <= capacity // n for src in range(n))


# -- misbehavior ledger ---------------------------------------------------------


class TestLedger:
    def test_scores_accumulate_by_weight(self):
        ledger = MisbehaviorLedger()
        ledger.report(1, "mac-failure")
        ledger.report(1, "ooc-quota")
        ledger.report(1, "unheard-of-offense")
        assert ledger.score(1) == OFFENSE_WEIGHTS["mac-failure"] + 0.25 + 1.0
        assert ledger.offenses(1)["mac-failure"] == 1


class TestStackLedger:
    def test_report_guards_self_and_range(self):
        net = InstantNet(4)
        stack = net.stacks[0]
        stack.report_misbehavior(0, "mac-failure")
        stack.report_misbehavior(7, "mac-failure")
        assert stack.stats.misbehavior_reports == 0
        assert stack.ledger.score(0) == stack.ledger.score(7) == 0.0

    def test_garbage_frames_score_the_sender_and_are_still_processed(self):
        """The ledger scores and never drops: after four garbage units
        the sender's next well-formed frame is still parked."""
        net = InstantNet(4)
        stack = net.stacks[0]
        for _ in range(4):
            stack.receive(3, b"\xffnot-a-frame")
        assert stack.ledger.offenses(3)["malformed-frame"] == 4
        assert stack.ledger.score(3) == 4.0
        stack.receive(3, encode_frame(("ab", 3, "msg", 0), 0, b"x"))
        assert len(stack.ooc) == 1

    def test_honest_runs_never_report(self):
        """The anti-slander bar: failure-free traffic on adversarial
        schedules, at the default OOC capacity, files zero reports."""
        for seed in range(6):
            net = ShuffleNet(4, seed=seed)
            sessions = [stack.create("ab", ("ab",)) for stack in net.stacks]
            for pid, ab in enumerate(sessions):
                ab.broadcast(b"m%d" % pid)
            net.run()
            for stack in net.stacks:
                assert stack.stats.misbehavior_reports == 0, f"seed {seed}"


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

    def test_kv_try_put(self):
        net = InstantNet(4, config=self.config(cap=1))
        kvs = [ReplicatedKvStore(stack.create("ab", ("kv",))) for stack in net.stacks]
        assert kvs[0].try_put("k", b"v") is True
        assert kvs[0].try_put("k2", b"v") is False  # window full
        net.run()
        assert kvs[0].try_put("k2", b"v2") is True
        net.run()
        assert all(kv.get("k") == b"v" and kv.get("k2") == b"v2" for kv in kvs)


def _count_apply(state, command):
    total = state + command.args[0]
    return total, total


# -- bounded send queues -------------------------------------------------------


# Frames of each shedding class, told apart by their payloads.
def _payload(tag: bytes) -> bytes:
    return encode_frame(("ab", 1, "msg", 0), 0, tag)


def _vote(tag: bytes) -> bytes:
    return encode_frame(("ab", 1, "vect"), 0, tag)


def _bulk(tag: bytes) -> bytes:
    return encode_frame(("rec", "st"), 0, tag)


class TestBoundedSendQueue:
    def test_unbounded_is_plain_fifo(self):
        queue = BoundedSendQueue()
        for data in (b"a", b"b", b"c"):
            assert queue.push(data) == []
        assert queue.drain() == [b"a", b"b", b"c"]
        assert queue.drain() == []

    def test_overflow_sheds_lowest_priority_first(self):
        queue = BoundedSendQueue(max_frames=2)
        queue.push(_payload(b"p"))
        queue.push(_vote(b"v1"))
        shed = queue.push(_vote(b"v2"))
        assert shed == [_payload(b"p")]
        assert queue.drain() == [_vote(b"v1"), _vote(b"v2")]

    def test_newcomer_shed_when_outranked(self):
        queue = BoundedSendQueue(max_frames=2)
        queue.push(_vote(b"v1"))
        queue.push(_vote(b"v2"))
        shed = queue.push(_bulk(b"b"))
        assert shed == [_bulk(b"b")]
        assert queue.drain() == [_vote(b"v1"), _vote(b"v2")]

    def test_never_reorders_survivors(self):
        """Shedding removes frames but must preserve the relative order
        of everything that survives (per-pair FIFO is a protocol
        assumption)."""
        queue = BoundedSendQueue(max_frames=3)
        queue.push(_payload(b"p1"))
        queue.push(_vote(b"v1"))
        queue.push(_payload(b"p2"))
        assert queue.push(_vote(b"v2")) == [_payload(b"p1")]
        assert queue.drain() == [_vote(b"v1"), _payload(b"p2"), _vote(b"v2")]

    def test_peaks_and_drain(self):
        queue = BoundedSendQueue(max_frames=10)
        frames = [_payload(bytes([index]) * 10) for index in range(5)]
        for frame in frames:
            assert queue.push(frame) == []  # under the bound nothing sheds
        assert len(queue) == 5 and queue.bytes == sum(map(len, frames))
        assert queue.drain() == frames
        assert len(queue) == 0 and queue.bytes == 0


class TestFramePriority:
    def test_classes(self):
        assert frame_priority(encode_frame(("ab", 1, "msg", 0), 0, b"x")) == PRIORITY_PAYLOAD
        assert frame_priority(encode_frame(("ab", 1, "vect"), 0, b"x")) == PRIORITY_AGREEMENT
        assert frame_priority(encode_frame(("ab", 0, "mvc", "bc"), 2, [0])) == PRIORITY_AGREEMENT
        assert frame_priority(encode_frame(("rec", "st"), 0, b"x")) == PRIORITY_BULK
        assert frame_priority(encode_frame(("ckpt", 3), 1, b"x")) == PRIORITY_BULK
        assert frame_priority(b"\xffgarbage") == PRIORITY_BULK
        # Queues hold bare frames only: a container is not looked into.
        assert frame_priority(encode_batch([_vote(b"v"), _vote(b"w")])) == PRIORITY_BULK

    def test_batch_takes_member_maximum(self):
        """A batch's members are queued bare, each under its own class, so
        the vote among them outranks payloads on overflow and still leaves
        in the container the link flush builds from the drained queue."""
        queue = BoundedSendQueue(max_frames=2)
        queue.push(_payload(b"p1"))
        queue.push(_vote(b"v"))
        assert queue.push(_payload(b"p2")) == [_payload(b"p1")]
        (unit,) = channel_units(queue.drain())
        assert [bytes(m) for m in decode_batch_views(unit)] == [_vote(b"v"), _payload(b"p2")]

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
    config = GroupConfig(4, ooc_capacity=256)
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


def test_duplicate_storm_repeats_every_rb_frame_kind():
    """INIT, ECHO and READY leave through ``send_all_raw``, the PAYLOAD
    push through the unicast ``send_raw``: the storm must repeat all
    four."""
    sent = []
    stack = Stack(
        GroupConfig(4, batching=False),
        0,
        outbox=lambda dest, data: sent.append((dest, data)),
        factory=duplicate_storm_faultload(ProtocolFactory.default()),
    )
    stack.create("rb", ("s",), sender=0).broadcast(b"m")
    stack.receive(0, encode_frame(("s",), MSG_INIT, b"m"))
    digest = hash_bytes(encode_value(b"m"))
    for mtype in (MSG_ECHO, MSG_READY):
        for src in (0, 1, 2):
            stack.receive(src, encode_frame(("s",), mtype, digest))
    factor = DuplicateStormReliableBroadcast.storm_factor
    storm = factor * 4
    counts = Counter(decode_frame_ex(data)[1] for _, data in sent)
    assert counts == {MSG_INIT: storm, MSG_ECHO: storm, MSG_READY: storm, MSG_PAYLOAD: factor}
    # p3 never echoed, so only p3 is pushed to.
    assert {dest for dest, data in sent if decode_frame_ex(data)[1] == MSG_PAYLOAD} == {3}


def test_unknown_strategy_name_rejected():
    with pytest.raises(ValueError, match="unknown Byzantine strategy"):
        FaultPlan.with_byzantine(3, "no-such-strategy")

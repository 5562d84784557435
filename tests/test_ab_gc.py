"""Atomic broadcast reclamation: always on, no option.

Two rules, both part of :class:`AtomicBroadcast` itself: a message's RB
instance and payload go when the message AB-delivers, and an agreement
round's ``vect``/``mvc`` subtree goes when the round two after it
decides.  A long session therefore costs what is in flight, not what
has ever been ordered.
"""

from repro.core import atomic_broadcast
from repro.core.atomic_broadcast import RETAINED_ROUNDS
from repro.core.config import GroupConfig
from repro.core.reliable_broadcast import MSG_INIT, MSG_READY
from repro.core.wire import decode_frame_ex

from util import InstantNet, ShuffleNet

MSG_0_0 = ("g", "msg", 0, 0)


def setup(net):
    orders = {}
    for pid, stack in enumerate(net.stacks):
        ab = stack.create("ab", ("g",))
        orders[pid] = []
        ab.on_deliver = lambda _i, d, pid=pid: orders[pid].append(d.msg_id)
    return orders


def ab_of(net, pid):
    return net.stacks[pid].instance_at(("g",))


def run_rounds(net, count, sender=0):
    """*count* sequential broadcasts, each run to quiescence: one
    agreement round apiece."""
    for wave in range(count):
        ab_of(net, sender).broadcast(b"w%d" % wave)
        net.run()


def footprint(net):
    return [
        (stack.live_instances, len(ab_of(net, pid)._received), len(ab_of(net, pid)._scheduled))
        for pid, stack in enumerate(net.stacks)
    ]


class TestOrderUnchanged:
    def test_order_agreement_on_adversarial_schedules(self):
        for seed in range(6):
            net = ShuffleNet(4, seed=seed)
            orders = setup(net)
            for wave in range(6):
                for pid in range(4):
                    ab_of(net, pid).broadcast(b"w%d-%d" % (wave, pid))
                net.run()
            reference = orders[0]
            assert len(reference) == 24, f"seed {seed}"
            assert all(o == reference for o in orders.values()), f"seed {seed}"

    def test_no_redelivery_from_stale_frames(self):
        """Frames for a reclaimed message must not re-deliver it, and are
        dropped rather than parked."""
        net = InstantNet(4)
        orders = setup(net)
        ab_of(net, 0).broadcast(b"once")
        net.run()
        assert net.stacks[2].instance_at(MSG_0_0) is None
        for src in (0, 1, 3):
            net.stacks[src].send_frame(2, MSG_0_0, MSG_READY, b"once")
        net.run()
        assert orders[2].count((0, 0)) == 1
        assert net.stacks[2].ooc_pending == 0
        assert net.stacks[2].stats.dropped["stale-frame"] >= 3


class TestFlatFootprint:
    def test_identical_after_50_and_200_rounds(self):
        net = InstantNet(4)
        setup(net)
        run_rounds(net, 50)
        after_50 = footprint(net)
        run_rounds(net, 150)
        assert ab_of(net, 0).round >= 200
        assert footprint(net) == after_50
        assert all(received == 0 and scheduled == 0 for _, received, scheduled in after_50)

    def test_delivered_record_stays_compact(self):
        net = InstantNet(4)
        setup(net)
        for _ in range(5):
            ab_of(net, 0).broadcast(b"x" * 1000)
            net.run()
        ab = ab_of(net, 0)
        assert ab.delivered_count == 5
        assert len(ab._received) == 0
        # One contiguous watermark per sender, no sparse stragglers.
        assert ab.delivered_frontier() == [[0, 4, []]]

    def test_message_instance_goes_at_delivery(self):
        net = InstantNet(4)
        setup(net)
        ab_of(net, 0).broadcast(b"m")
        net.run()
        for pid, stack in enumerate(net.stacks):
            assert stack.instance_at(MSG_0_0) is None, pid
            assert ab_of(net, pid)._open_msg_instances == {0: 0}

    def test_round_subtrees_trail_by_the_constant(self):
        net = InstantNet(4)
        setup(net)
        run_rounds(net, 10)
        for pid, stack in enumerate(net.stacks):
            ab = ab_of(net, pid)
            assert ab.gc_floor == ab.round - RETAINED_ROUNDS
            live_rounds = {
                path[2] for path in stack.instances() if path[1:2] in (("vect",), ("mvc",))
            }
            assert min(live_rounds) == ab.gc_floor
            # The retained rounds still answer stragglers.
            for round_number in range(ab.gc_floor, ab.round + 1):
                assert stack.instance_at(("g", "vect", round_number, 0)) is not None


class _WithholdingNet(InstantNet):
    """Drops every frame of one message's RB towards one process,
    except the INIT (so the instance exists there but never delivers)."""

    def __init__(self, victim, path):
        self.victim, self.path = victim, path
        super().__init__(config=GroupConfig(4, batching=False))

    def enqueue(self, src, dest, data):
        if dest == self.victim:
            path, mtype, _ = decode_frame_ex(data)[:3]
            if path == self.path and mtype != MSG_INIT:
                return
        super().enqueue(src, dest, data)


def test_injected_payload_instance_waits_for_the_round_rule():
    net = _WithholdingNet(victim=3, path=MSG_0_0)
    orders = setup(net)
    ab_of(net, 0).broadcast(b"held")
    net.run()
    ab3 = ab_of(net, 3)
    assert orders[0] == [(0, 0)] and orders[3] == []
    assert ab3.stalled_ids() == [(0, 0)]
    rb = net.stacks[3].instance_at(MSG_0_0)
    assert rb is not None and not rb.delivered

    assert ab3.inject_payload((0, 0), b"held")
    assert orders[3] == [(0, 0)]
    # Delivered from the injected payload: the RB instance may still owe
    # its READY, so it outlives the delivery...
    assert net.stacks[3].instance_at(MSG_0_0) is rb
    delivered_in = ab3.round
    run_rounds(net, RETAINED_ROUNDS, sender=1)
    assert net.stacks[3].instance_at(MSG_0_0) is rb
    # ...until the round it was delivered in is collected.
    run_rounds(net, 2, sender=1)
    assert ab3.gc_floor > delivered_in
    assert net.stacks[3].instance_at(MSG_0_0) is None
    assert ab3._open_msg_instances[0] == 0
    assert orders[3] == orders[0]


def test_msg_window_counts_open_instances_not_history(monkeypatch):
    """Regression: the per-sender window was only ever decremented by
    the opt-in collector, so after ``MSG_WINDOW`` *delivered* messages an
    honest sender was refused and scored."""
    monkeypatch.setattr(atomic_broadcast, "MSG_WINDOW", 8)
    net = InstantNet(4)
    orders = setup(net)
    run_rounds(net, 200)
    for pid, stack in enumerate(net.stacks):
        assert len(orders[pid]) == 200, pid
        assert stack.ooc_pending == 0
        assert stack.stats.misbehavior_reports == 0
        assert stack.ledger.score(0) == 0


def test_late_votes_are_not_misbehaviour():
    """Votes that reach a process after it reclaimed the instance take
    the stale-frame route: dropped, never parked, never scored.  Holding
    p3's inbound links makes every one of its ECHOs and READYs late."""
    for seed in range(3):
        config = GroupConfig(4, quarantine_threshold=3.0)
        net = ShuffleNet(4, seed=seed, config=config)
        orders = setup(net)
        net.held = {3}
        for wave in range(50):
            for pid in range(4):
                ab_of(net, pid).broadcast(b"w%d-%d" % (wave, pid))
            net.run()
        assert len(orders[0]) == 200 and orders[3] == []
        assert ab_of(net, 0).round >= 50
        net.held = set()
        net.run()
        for pid, stack in enumerate(net.stacks):
            assert orders[pid] == orders[0], f"seed {seed} p{pid}"
            stack.check_ooc_accounting()
            assert stack.ooc_pending == 0
            assert stack.stats.misbehavior_reports == 0
            assert stack.stats.quarantine_entries == 0
            for peer in range(4):
                assert stack.ledger.score(peer) == 0
                assert not stack.ledger.quarantined(peer)
        for pid in range(3):
            assert net.stacks[pid].stats.dropped["stale-frame"] > 0, f"seed {seed}"
        # The laggard finished every round from frames already queued,
        # and holds no more than its peers do.
        assert footprint(net)[3] == footprint(net)[0]

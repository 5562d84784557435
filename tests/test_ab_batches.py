"""Atomic broadcast batches: one reliable broadcast per flush window,
one id per message, and the receive, skip and reclaim rules."""

import pytest

from repro.core import atomic_broadcast
from repro.core.config import GroupConfig
from repro.core.reliable_broadcast import MSG_INIT

from util import InstantNet

AB = ("ab",)


def setup(net):
    orders = {}
    for pid, stack in enumerate(net.stacks):
        ab = stack.create("ab", AB)
        orders[pid] = []
        ab.on_deliver = lambda _i, d, pid=pid: orders[pid].append((d.sender, d.rbid, d.payload))
    return orders


def ab_of(net, pid):
    return net.stacks[pid].instance_at(AB)


def batch_paths(stack):
    return sorted(path[2:] for path in stack.instances() if path[1:2] == ("msg",))


def test_a_window_is_one_rb_instance():
    net = InstantNet(4)
    orders = setup(net)
    stack = net.stacks[0]
    with stack.coalesce():
        ids = [ab_of(net, 0).broadcast(b"m%d" % k) for k in range(5)]
        assert batch_paths(stack) == []  # sent when the window closes
    assert ids == [(0, k) for k in range(5)]
    assert batch_paths(stack) == [(0, 0, 4)]
    assert stack.stats.broadcasts_for("payload") == 1
    net.run()
    expected = [(0, k, b"m%d" % k) for k in range(5)]
    assert all(order == expected for order in orders.values())


@pytest.mark.parametrize("batching, window", [(True, False), (False, True)])
def test_each_broadcast_is_a_batch_of_one(batching, window):
    """Outside a window, or with batching off (the paper's stack)."""
    net = InstantNet(config=GroupConfig(4, batching=batching))
    orders = setup(net)
    stack = net.stacks[0]
    if window:
        with stack.coalesce():
            for k in range(3):
                ab_of(net, 0).broadcast(b"m%d" % k)
    else:
        for k in range(3):
            ab_of(net, 0).broadcast(b"m%d" % k)
    assert batch_paths(stack) == [(0, k, k) for k in range(3)]
    assert stack.stats.broadcasts_for("payload") == 3
    net.run()
    assert all(len(order) == 3 for order in orders.values())


def test_max_batch_msgs_splits_a_window(monkeypatch):
    monkeypatch.setattr(atomic_broadcast, "MAX_BATCH_MSGS", 4)
    net = InstantNet(4)
    orders = setup(net)
    with net.stacks[0].coalesce():
        for k in range(10):
            ab_of(net, 0).broadcast(b"m%d" % k)
    assert batch_paths(net.stacks[0]) == [(0, 0, 3), (0, 4, 7), (0, 8, 9)]
    net.run()
    assert all([r for _, r, _ in order] == list(range(10)) for order in orders.values())


def test_malformed_batch_is_never_vouched_for_and_is_reclaimed():
    """p3 reliably broadcasts a batch value of the wrong length and one
    that is not a list: every correct process drops both, vouches for
    neither, and treats later frames for them as stale."""
    net = InstantNet(4)
    orders = setup(net)
    for dest in range(4):
        net.stacks[3].send_frame(dest, AB + ("msg", 3, 0, 1), MSG_INIT, [b"one of two"])
        net.stacks[3].send_frame(dest, AB + ("msg", 3, 2, 2), MSG_INIT, b"not a list")
    net.run()
    for pid in range(3):
        ab = ab_of(net, pid)
        assert batch_paths(net.stacks[pid]) == []
        assert ab._malformed == {(3, 0, 1), (3, 2, 2)}
        assert not ab._batches and ab.round == 0  # nothing to vouch for
    for pid in range(3):
        ab_of(net, pid).broadcast(b"real%d" % pid)
    net.run()
    real = [(p, 0, b"real%d" % p) for p in range(3)]
    assert all(sorted(order) == real for order in orders.values())
    stale = [net.stacks[pid].stats.dropped["stale-frame"] for pid in range(3)]
    for dest in range(3):
        net.stacks[3].send_frame(dest, AB + ("msg", 3, 0, 1), MSG_INIT, [b"a", b"b"])
    net.run()
    for pid in range(3):
        assert net.stacks[pid].stats.dropped["stale-frame"] == stale[pid] + 1
        assert batch_paths(net.stacks[pid]) == []
        assert net.stacks[pid].stats.misbehavior_reports == 0


def test_accept_orphan_checks_batch_paths(monkeypatch):
    monkeypatch.setattr(atomic_broadcast, "MSG_WINDOW", 2)
    net = InstantNet(4)
    setup(net)
    ab_of(net, 0).broadcast(b"delivered")
    net.run()
    victim = net.stacks[1]
    before = victim.ooc_pending
    cap = atomic_broadcast.MAX_BATCH_MSGS
    for suffix in [(3, 0), (3, 0, cap), (3, 5, 4), (3, -1, 0), (9, 0, 0)]:
        net.stacks[3].send_frame(1, AB + ("msg",) + suffix, MSG_INIT, [b"x"])
    net.run()
    assert victim.ooc_pending == before + 5  # parked, never created
    net.stacks[0].send_frame(1, AB + ("msg", 0, 0, 0), MSG_INIT, [b"again"])
    net.run()
    assert victim.stats.dropped["stale-frame"] == 1
    for rbid in range(4):  # the window: two open batches per sender
        net.stacks[3].send_frame(1, AB + ("msg", 3, rbid, rbid), MSG_INIT, [b"y"])
    net.run()
    assert batch_paths(victim) == [(3, 0, 0), (3, 1, 1)]
    assert victim.ledger.offenses(3) == {"msg-window": 2}


def test_instance_reclaimed_at_its_last_delivery():
    net = InstantNet(4)
    seen = []
    for pid, stack in enumerate(net.stacks):
        stack.create("ab", AB)
    path = AB + ("msg", 0, 0, 2)
    ab_of(net, 2).on_deliver = lambda _i, d: seen.append(
        (d.rbid, net.stacks[2].instance_at(path) is not None)
    )
    with net.stacks[0].coalesce():
        for k in range(3):
            ab_of(net, 0).broadcast(b"m%d" % k)
    net.run()
    assert seen == [(0, True), (1, True), (2, False)]
    for pid in range(4):
        ab = ab_of(net, pid)
        assert not (ab._batches or ab._bound or ab._scheduled)
        assert ab._open_msg_instances == {0: 0}


def test_overlapping_batches_deliver_each_id_once_from_the_first():
    """Decided batches go in (sender, first, last) order; an id already
    scheduled is skipped, so (3, 1) comes from (3, 0, 1)."""
    net = InstantNet(4)
    orders = setup(net)
    ab = ab_of(net, 0)
    ab._batches[(3, 0, 1)] = [b"a0", b"a1"]
    ab._batches[(3, 1, 2)] = [b"B1", b"B2"]
    ab._on_agreement(0, [[3, 0, 1], [3, 1, 2]])
    assert orders[0] == [(3, 0, b"a0"), (3, 1, b"a1"), (3, 2, b"B2")]
    assert not (ab._batches or ab._bound or ab._scheduled)


def test_footprint_flat_across_batched_windows():
    net = InstantNet(4)
    setup(net)

    def waves(count):
        for wave in range(count):
            for pid in range(4):
                with net.stacks[pid].coalesce():
                    for k in range(3):
                        ab_of(net, pid).broadcast(b"w%d-%d-%d" % (wave, pid, k))
            net.run()

    def footprint():
        return [(s.live_instances, len(ab_of(net, p)._batches)) for p, s in enumerate(net.stacks)]

    waves(20)
    after_20 = footprint()
    waves(40)
    assert footprint() == after_20
    assert ab_of(net, 0).delivered_count == 60 * 12
    assert all(batches == 0 for _, batches in after_20)

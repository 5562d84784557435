"""Atomic broadcast batches: one reliable broadcast per flush window,
one id per message, and the receive, skip and reclaim rules."""

from collections import Counter

import pytest

from repro.core import atomic_broadcast
from repro.core.config import GroupConfig
from repro.core.reliable_broadcast import MSG_ECHO, MSG_INIT, MSG_READY
from repro.core.wire import (
    decode_batch_views,
    decode_frame_ex,
    encode_batch,
    encode_frame,
    encode_payload,
    is_batch,
)
from repro.crypto.hashing import hash_bytes

from util import InstantNet, ShuffleNet

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
    """The batch is one run: it is taken, and the instance reclaimed,
    as its last id is handed over -- payloads delivered unchanged."""
    net = InstantNet(4)
    seen = []
    for pid, stack in enumerate(net.stacks):
        stack.create("ab", AB)
    path = AB + ("msg", 0, 0, 2)
    ab_of(net, 2).on_deliver = lambda _i, d: seen.append(
        (d.rbid, d.payload, net.stacks[2].instance_at(path) is not None)
    )
    with net.stacks[0].coalesce():
        for k in range(3):
            ab_of(net, 0).broadcast(b"m%d" % k)
    net.run()
    assert seen == [(0, b"m0", True), (1, b"m1", True), (2, b"m2", False)]
    for pid in range(4):
        ab = ab_of(net, pid)
        assert not (ab._batches or ab._bound or ab._delivery_queue or ab._queued)
        assert ab._open_msg_instances == {0: 0}


def test_overlapping_batches_deliver_each_id_once_from_the_first():
    """Decided batches go in (sender, first, last) order; an id already
    queued is skipped, so (3, 1) comes from (3, 0, 1)."""
    net = InstantNet(4)
    orders = setup(net)
    ab = ab_of(net, 0)
    ab._batches[(3, 0, 1)] = [b"a0", b"a1"]
    ab._batches[(3, 1, 2)] = [b"B1", b"B2"]
    ab._on_agreement(0, [[3, 0, 1], [3, 1, 2]])
    assert orders[0] == [(3, 0, b"a0"), (3, 1, b"a1"), (3, 2, b"B2")]
    assert not (ab._batches or ab._bound or ab._delivery_queue or ab._queued)


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


def test_unencodable_payload_is_refused_before_it_takes_an_id():
    """Inside a window the refusal comes at the call, so the window's
    other messages still go out; outside one it takes no id either."""
    net = InstantNet(4)
    orders = setup(net)
    ab = ab_of(net, 0)
    with net.stacks[0].coalesce():
        assert ab.broadcast(b"good") == (0, 0)
        with pytest.raises(TypeError):
            ab.broadcast(1.5)
    with pytest.raises(TypeError):
        ab.broadcast(1.5)
    nested = b"deep"
    for _ in range(20):
        nested = [nested]
    with pytest.raises(ValueError):
        ab.broadcast(nested)
    assert ab.broadcast(b"next") == (0, 1)
    net.run()
    assert all(order == [(0, 0, b"good"), (0, 1, b"next")] for order in orders.values())
    assert ab.pending_local == 0


def _frames(units):
    """Decoded ``(path, mtype, payload)`` of every frame in *units*."""
    out = []
    for data in units:
        for frame in decode_batch_views(data) if is_batch(data) else [data]:
            path, mtype, payload, _ = decode_frame_ex(frame)
            out.append((path, mtype, payload))
    return out


def _vects_sent(net, pid, round_number=0):
    """Payloads of the AB_VECT INITs *pid* queued for round *round_number*."""
    path = AB + ("vect", round_number, pid)
    units = [data for src, _, data in net.queue if src == pid]
    return [p for f_path, mtype, p in _frames(units) if f_path == path and mtype == MSG_INIT]


def _deliver_in_one_unit(net, batches):
    """Bring each batch in *batches* (a batch of one message from its
    sender) to p0 up to one READY short of delivery, then hand p0 the
    last READY of every batch in one channel unit from p3."""
    p0 = net.stacks[0]

    def frame(batch, mtype, payload):
        return encode_frame(AB + ("msg",) + batch, mtype, payload)

    votes = {}
    for batch in batches:
        content = [b"m%d" % batch[0]]
        votes[batch] = vote = hash_bytes(encode_payload(content))
        p0.receive(batch[0], frame(batch, MSG_INIT, content))
        for src in (1, 2, 3):
            p0.receive(src, frame(batch, MSG_ECHO, vote))
        for src in (1, 2):  # p0's own READY goes out, never back
            p0.receive(src, frame(batch, MSG_READY, vote))
    assert not ab_of(net, 0)._batches and not _vects_sent(net, 0)
    net.queue.clear()
    p0.receive(3, encode_batch([frame(b, MSG_READY, votes[b]) for b in batches]))
    assert sorted(ab_of(net, 0)._batches) == batches


def test_a_unit_that_delivers_several_batches_opens_one_round_naming_them_all():
    net = InstantNet(4)
    setup(net)
    batches = [(1, 0, 0), (2, 0, 0), (3, 0, 0)]
    _deliver_in_one_unit(net, batches)
    vect = atomic_broadcast.encode_batches(batches)
    assert _vects_sent(net, 0) == [vect] * 4  # one INIT per destination


def test_without_batching_the_round_opens_at_the_first_delivery():
    net = InstantNet(config=GroupConfig(4, batching=False))
    setup(net)
    _deliver_in_one_unit(net, [(1, 0, 0), (2, 0, 0), (3, 0, 0)])
    assert _vects_sent(net, 0) == [[[1, 0, 0]]] * 4


@pytest.mark.parametrize("seed", range(4))
def test_one_vect_per_round_per_process(seed):
    net = ShuffleNet(4, seed=seed)
    orders = setup(net)
    sent = Counter()
    enqueue = net.enqueue

    def counting(src, dest, data):
        if src == dest:  # a broadcast's own copy: one per send
            for path, mtype, _ in _frames([data]):
                if path[1:2] == ("vect",) and path[3] == src and mtype == MSG_INIT:
                    sent[(src, path[2])] += 1
        enqueue(src, dest, data)

    net.enqueue = counting
    for wave in range(5):
        for pid in range(4):
            with net.stacks[pid].coalesce():
                for k in range(3):
                    ab_of(net, pid).broadcast(b"%d-%d-%d" % (wave, pid, k))
        net.run()
    assert sent and set(sent.values()) == {1}
    for pid in range(4):
        rounds = sorted(r for src, r in sent if src == pid)
        assert rounds == list(range(len(rounds)))
    assert all(order == orders[0] and len(order) == 60 for order in orders.values())

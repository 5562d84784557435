"""Atomic broadcast: total order, agreement batching, dynamic instance
creation, hostile inputs, and the id-range wire form."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import atomic_broadcast
from repro.core.atomic_broadcast import (
    AbDelivery,
    encode_id_ranges,
    expand_id_ranges,
    encode_batches,
    parse_batches,
    parse_id_ranges,
)
from repro.core.reliable_broadcast import MSG_INIT
from repro.core.wire import decode_batch_views, decode_frame_ex, encode_value, is_batch

from util import InstantNet, ShuffleNet

FUZZ = dict(max_examples=int(os.environ.get("RITAS_FUZZ_EXAMPLES", "30")), deadline=None)


def setup_ab(net, path=("ab",)):
    orders = {}
    for pid, stack in enumerate(net.stacks):
        if pid in net.crashed:
            continue
        ab = stack.create("ab", path)
        orders[pid] = []
        ab.on_deliver = (
            lambda _i, d, pid=pid: orders[pid].append((d.sender, d.rbid, d.payload))
        )
    return orders


class TestTotalOrder:
    def test_single_message(self):
        net = InstantNet(4)
        orders = setup_ab(net)
        net.stacks[0].instance_at(("ab",)).broadcast(b"solo")
        net.run()
        assert all(o == [(0, 0, b"solo")] for o in orders.values())

    def test_identical_order_everywhere(self):
        net = InstantNet(4)
        orders = setup_ab(net)
        for pid in range(4):
            for k in range(3):
                net.stacks[pid].instance_at(("ab",)).broadcast(b"m%d%d" % (pid, k))
        net.run()
        reference = orders[0]
        assert len(reference) == 12
        assert all(o == reference for o in orders.values())

    def test_identical_order_on_shuffled_schedules(self):
        for seed in range(12):
            net = ShuffleNet(4, seed=seed)
            orders = setup_ab(net)
            for pid in range(4):
                net.stacks[pid].instance_at(("ab",)).broadcast(b"x%d" % pid)
            net.run()
            reference = orders[0]
            assert len(reference) == 4, f"seed {seed}"
            assert all(o == reference for o in orders.values()), f"seed {seed}"

    def test_no_duplicates_no_losses(self):
        net = InstantNet(4)
        orders = setup_ab(net)
        expected = set()
        for pid in range(4):
            for k in range(5):
                net.stacks[pid].instance_at(("ab",)).broadcast(b"p%d-%d" % (pid, k))
                expected.add((pid, k))
        net.run()
        for order in orders.values():
            assert {(s, r) for s, r, _ in order} == expected
            assert len(order) == len(expected)

    def test_sequence_numbers_dense(self):
        net = InstantNet(4)
        sequences = []
        ab = net.stacks[0].create("ab", ("ab",))
        ab.on_deliver = lambda _i, d: sequences.append(d.sequence)
        for pid in range(1, 4):
            net.stacks[pid].create("ab", ("ab",))
        for pid in range(4):
            net.stacks[pid].instance_at(("ab",)).broadcast(b"m")
        net.run()
        assert sequences == list(range(4))

    def test_broadcast_returns_id(self):
        net = InstantNet(4)
        setup_ab(net)
        assert net.stacks[2].instance_at(("ab",)).broadcast(b"m") == (2, 0)
        assert net.stacks[2].instance_at(("ab",)).broadcast(b"m") == (2, 1)

    def test_crashed_sender_messages_may_be_lost_but_order_agrees(self):
        net = InstantNet(4, crashed={3})
        orders = setup_ab(net)
        for pid in range(3):
            net.stacks[pid].instance_at(("ab",)).broadcast(b"c%d" % pid)
        net.run()
        reference = orders[0]
        assert len(reference) == 3
        assert all(o == reference for o in orders.values())

    def test_second_wave_after_quiescence(self):
        """Rounds keep working after the system goes idle."""
        net = InstantNet(4)
        orders = setup_ab(net)
        net.stacks[0].instance_at(("ab",)).broadcast(b"one")
        net.run()
        net.stacks[1].instance_at(("ab",)).broadcast(b"two")
        net.run()
        for order in orders.values():
            assert [payload for _, _, payload in order] == [b"one", b"two"]

    def test_batching_uses_few_agreements(self):
        """A burst of messages is ordered by O(1) agreements, not O(k)."""
        net = InstantNet(4)
        orders = setup_ab(net)
        for pid in range(4):
            for k in range(10):
                net.stacks[pid].instance_at(("ab",)).broadcast(b"b%d%d" % (pid, k))
        net.run()
        assert len(orders[0]) == 40
        rounds = net.stacks[0].instance_at(("ab",)).round
        assert rounds <= 4  # 40 messages, a handful of agreements

    def test_larger_group(self):
        net = InstantNet(7)
        orders = setup_ab(net)
        for pid in range(7):
            net.stacks[pid].instance_at(("ab",)).broadcast(b"m%d" % pid)
        net.run()
        assert len(orders[0]) == 7
        assert all(o == orders[0] for o in orders.values())


class TestHostileInputs:
    def test_malformed_vect_payload_ignored(self):
        from repro.core.reliable_broadcast import MSG_INIT

        net = InstantNet(4)
        orders = setup_ab(net)
        # Byzantine p3 broadcasts a junk AB_VECT for round 0.
        for dest in range(3):
            net.stacks[3].send_frame(dest, ("ab", "vect", 0, 3), MSG_INIT, b"junk")
        for pid in range(3):
            net.stacks[pid].instance_at(("ab",)).broadcast(b"v%d" % pid)
        net.run()
        reference = orders[0]
        assert len(reference) == 3
        assert all(orders[pid] == reference for pid in range(3))

    def test_fake_ids_in_vect_do_not_block(self):
        """Identifiers nobody received never reach the f+1 support bar,
        so they are not chosen and cannot wedge delivery."""
        from repro.core.reliable_broadcast import MSG_INIT

        net = InstantNet(4)
        orders = setup_ab(net)
        for dest in range(3):
            net.stacks[3].send_frame(
                dest, ("ab", "vect", 0, 3), MSG_INIT, [[1, 777, 777], [2, 999, 999]]
            )
        for pid in range(3):
            net.stacks[pid].instance_at(("ab",)).broadcast(b"real%d" % pid)
        net.run()
        assert len(orders[0]) == 3
        delivered_ids = {(s, r) for s, r, _ in orders[0]}
        assert (2, 999) not in delivered_ids

    def test_msg_window_bounds_instance_creation(self, monkeypatch):
        from repro.core import atomic_broadcast
        from repro.core.reliable_broadcast import MSG_INIT

        monkeypatch.setattr(atomic_broadcast, "MSG_WINDOW", 4)
        net = InstantNet(4)
        for pid, stack in enumerate(net.stacks):
            stack.create("ab", ("ab",))
        before = net.stacks[0].live_instances
        for rbid in range(50):
            net.stacks[3].send_frame(0, ("ab", "msg", 3, rbid, rbid), MSG_INIT, [b"spam"])
        net.run()
        created = net.stacks[0].live_instances - before
        assert created <= 4

    def test_negative_rbid_rejected(self):
        from repro.core.reliable_broadcast import MSG_INIT

        net = InstantNet(4)
        setup_ab(net)
        before = net.stacks[0].live_instances
        net.stacks[3].send_frame(0, ("ab", "msg", 3, -5, -5), MSG_INIT, [b"spam"])
        net.run()
        assert net.stacks[0].live_instances == before  # parked, not created

    def test_duplicate_ids_in_vect_rejected(self):
        assert parse_id_ranges([[1, 2, 2], [1, 2, 2]], PIDS) is None
        assert parse_id_ranges([[1, 2, 5], [1, 4, 9]], PIDS) is None

    def test_id_list_parser_shapes(self):
        assert parse_id_ranges([[0, 1, 1], [3, 0, 4]], PIDS) == [(0, 1, 1), (3, 0, 4)]
        assert parse_id_ranges([[0, 1, 3], [0, 5, 5]], PIDS) == [(0, 1, 3), (0, 5, 5)]
        assert parse_id_ranges([], PIDS) == []
        for junk in (
            "junk",
            None,
            [[0, 1]],  # the old per-id form
            [[0, 1, 1, 1]],
            [(0, 1, 1)],
            [[9, 0, 0]],  # unknown sender
            [[-1, 0, 0]],
            [[0, -1, 2]],  # negative
            [[0, 3, 2]],  # inverted
            [[0, 0, 2], [0, 3, 4]],  # adjacent but not merged
            [[0, 5, 6], [0, 1, 2]],  # unsorted within a sender
            [[1, 0, 0], [0, 0, 0]],  # unsorted senders
            [[0, 0, 0.5]],
        ):
            assert parse_id_ranges(junk, PIDS) is None, junk

    def test_parser_caps_before_expanding(self):
        cap = atomic_broadcast.MAX_VECT_IDS
        assert parse_id_ranges([[0, 0, cap - 1]], PIDS) == [(0, 0, cap - 1)]
        assert parse_id_ranges([[0, 0, cap]], PIDS) is None
        assert parse_id_ranges([[0, 0, cap // 2], [1, 0, cap // 2]], PIDS) is None
        # Counted from the bounds: a trillion-id range is refused at once.
        assert parse_id_ranges([[0, 0, 10**12]], PIDS) is None

    def test_frontier_watermarks_are_exempt_and_sparse_capped_per_sender(self):
        cap = atomic_broadcast.MAX_VECT_IDS
        huge = [[0, 0, 10**12], [0, 10**12 + 2, 10**12 + 2]]
        assert parse_id_ranges(huge, PIDS, watermarks=True) == [tuple(r) for r in huge]
        assert parse_id_ranges(huge, PIDS) is None
        sparse = [[0, 2, cap + 1], [1, 2, cap + 1]]
        assert parse_id_ranges(sparse, PIDS, watermarks=True) is not None
        assert parse_id_ranges(sparse, PIDS) is None
        assert parse_id_ranges([[0, 2, cap + 2]], PIDS, watermarks=True) is None

    @pytest.mark.parametrize(
        "forged", [[[True, 0, 0]], [[1, False, 0]], [[1, 0, True]], [[0, 0, 0], [True, 0, 0]]]
    )
    def test_bool_spelled_ids_are_malformed(self, forged):
        """``True == 1``: a parser that admits bools lets one set reach
        MVC in two spellings, which MVC treats as two values."""
        assert parse_id_ranges(forged, PIDS) is None
        assert parse_id_ranges(forged, PIDS, watermarks=True) is None

    def test_bool_spelled_vect_never_counts_toward_support(self):
        from repro.core.reliable_broadcast import MSG_INIT

        net = InstantNet(4)
        orders = setup_ab(net)
        for dest in range(3):
            net.stacks[3].send_frame(dest, ("ab", "vect", 0, 3), MSG_INIT, [[True, 0, 0]])
        for pid in range(3):
            net.stacks[pid].instance_at(("ab",)).broadcast(b"v%d" % pid)
        net.run()
        for pid in range(3):
            assert orders[pid] == orders[0] and len(orders[pid]) == 3
            vects = net.stacks[pid].instance_at(("ab",))._round_vects[0]
            assert 3 not in vects and sorted(vects) == [0, 1, 2]

    def test_bool_spelled_decision_schedules_nothing(self):
        net = InstantNet(4)
        setup_ab(net)
        ab = net.stacks[0].instance_at(("ab",))
        ab._on_agreement(0, [[0, True, 1]])
        assert ab.agreements_empty == 1 and not ab._delivery_queue and ab.round == 1


PIDS = range(4)

id_sets = st.sets(st.tuples(st.integers(0, 3), st.integers(0, 300)), max_size=60)


@given(ids=id_sets, order=st.randoms(use_true_random=False))
@settings(**FUZZ)
def test_id_ranges_round_trip_and_have_one_spelling(ids, order):
    wire = encode_id_ranges(ids)
    assert expand_id_ranges(parse_id_ranges(wire, PIDS)) == sorted(ids)
    shuffled = list(ids)
    order.shuffle(shuffled)
    assert encode_value(encode_id_ranges(shuffled)) == encode_value(wire)


@given(
    payload=st.lists(
        st.lists(st.integers(-1, 6) | st.booleans(), min_size=3, max_size=3), max_size=5
    )
)
@settings(**FUZZ)
def test_parser_accepts_only_the_canonical_spelling(payload):
    parsed = parse_id_ranges(payload, PIDS)
    if parsed is not None:
        canonical = encode_id_ranges(expand_id_ranges(parsed))
        assert encode_value(canonical) == encode_value(payload)


def test_batch_lists_round_trip_and_have_one_spelling():
    # Back-to-back batches share an entry, boundaries kept.
    assert encode_batches([(1, 8, 8), (1, 0, 3), (1, 4, 7)]) == [[1, 0, 3, 7, 8]]
    # An overlapping batch (0, 5, 5) sorts between (0, 4, 9) and
    # (0, 10, 12), so it ends one run and starts another.
    batches = [(2, 0, 0), (0, 4, 9), (0, 0, 3), (0, 10, 12), (0, 5, 5), (0, 4, 9)]
    wire = encode_batches(batches)
    assert wire == [[0, 0, 3, 9], [0, 5, 5], [0, 10, 12], [2, 0, 0]]
    assert parse_batches(wire, PIDS) == sorted(set(batches))
    assert parse_batches([], PIDS) == []


batch_sets = st.sets(
    st.tuples(st.integers(0, 3), st.integers(0, 40), st.integers(0, 3)).map(
        lambda t: (t[0], t[1], t[1] + t[2])
    ),
    max_size=30,
)


@given(batches=batch_sets)
@settings(**FUZZ)
def test_batch_spelling_is_unique(batches):
    wire = encode_batches(batches)
    assert parse_batches(wire, PIDS) == sorted(batches)
    split = [list(b) for b in sorted(batches)]  # one entry per batch
    if split != wire:
        assert parse_batches(split, PIDS) is None


def test_batch_parser_refuses_every_other_spelling():
    cap = atomic_broadcast.MAX_BATCH_MSGS
    assert parse_batches([[0, 0, cap - 1]], PIDS) == [(0, 0, cap - 1)]
    for junk in (
        "junk",
        [[0, 0, cap]],  # one id over MAX_BATCH_MSGS
        [[0, 0, 4, 5 + cap]],
        [[0, 4, 9], [0, 4, 9]],  # duplicated
        [[0, 4, 9], [0, 0, 9]],  # unsorted
        [[0, 0, 3], [0, 4, 9]],  # a run split in two
        [[0, 0, 3, 3]],  # an empty batch in a run
        [[True, 0, 0]],
        [[0, 0, True]],
        [[0, 3, 2]],
        [[9, 0, 0]],
        [[0, 0]],
        [(0, 1, 1)],
    ):
        assert parse_batches(junk, PIDS) is None, junk
    # The batches together may name at most MAX_VECT_IDS ids.
    full = [[s, 0] + [r + cap - 1 for r in range(0, 16 * cap, cap)] for s in PIDS]
    assert parse_batches(full, PIDS) is not None
    assert parse_batches(full[:-1] + [full[-1] + [16 * cap]], PIDS) is None


def test_support_needs_f_plus_1_identical_triples():
    """(1, 1, 3) overlaps the supported (1, 0, 3) but names another RB
    instance: only identical triples add up."""
    net = InstantNet(4)
    setup_ab(net)
    ab = net.stacks[0].instance_at(("ab",))
    ab._vect_sent.add(0)
    for sender, vect in enumerate(
        [[[1, 0, 3], [2, 0, 0]], [[1, 0, 3], [3, 5, 5]], [[1, 1, 3], [2, 0, 0]]]
    ):
        ab._on_vect(0, sender, vect)
    proposal = net.stacks[0].instance_at(("ab", "mvc", 0)).proposal
    assert proposal == [[1, 0, 3], [2, 0, 0]]


def test_one_sender_burst_vect_is_one_range():
    """A 1000-message burst from one sender in one flush window is one
    batch, so its AB_VECTs carry one triple (32 bytes in the wire codec)
    instead of growing per id."""
    vects = []

    class Spy(InstantNet):
        def enqueue(self, src, dest, data):
            for frame in decode_batch_views(data) if is_batch(data) else [data]:
                path, mtype, payload = decode_frame_ex(frame)[:3]
                if path[1:2] == ("vect",) and mtype == MSG_INIT:
                    vects.append(payload)
            super().enqueue(src, dest, data)

    net = Spy(4)
    orders = setup_ab(net)
    with net.stacks[0].coalesce():
        for k in range(1000):
            net.stacks[0].instance_at(("ab",)).broadcast(b"%d" % k)
    net.run()
    assert all(len(o) == 1000 for o in orders.values())
    assert vects
    assert all(len(v) <= 1 and len(encode_value(v)) <= 32 for v in vects), vects
    assert max(last - first + 1 for v in vects for _, first, last in v) == 1000


class TestDeliveryDataclass:
    def test_msg_id_property(self):
        d = AbDelivery(sender=2, rbid=7, payload=b"x", sequence=0)
        assert d.msg_id == (2, 7)

    def test_frozen(self):
        d = AbDelivery(sender=2, rbid=7, payload=b"x", sequence=0)
        with pytest.raises(AttributeError):
            d.sender = 3  # type: ignore[misc]

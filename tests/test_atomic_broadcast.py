"""Atomic broadcast: total order, agreement batching, dynamic instance
creation, and hostile inputs."""

import pytest

from repro.core.atomic_broadcast import AbDelivery

from util import InstantNet, ShuffleNet


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
                dest, ("ab", "vect", 0, 3), MSG_INIT, [[2, 999], [1, 777]]
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
            net.stacks[3].send_frame(0, ("ab", "msg", 3, rbid), MSG_INIT, b"spam")
        net.run()
        created = net.stacks[0].live_instances - before
        assert created <= 4

    def test_negative_rbid_rejected(self):
        from repro.core.reliable_broadcast import MSG_INIT

        net = InstantNet(4)
        setup_ab(net)
        before = net.stacks[0].live_instances
        net.stacks[3].send_frame(0, ("ab", "msg", 3, -5), MSG_INIT, b"spam")
        net.run()
        assert net.stacks[0].live_instances == before  # parked, not created

    def test_duplicate_ids_in_vect_rejected(self):
        net = InstantNet(4)
        setup_ab(net)
        ab = net.stacks[0].instance_at(("ab",))
        assert ab._parse_id_list([[1, 2], [1, 2]]) is None

    def test_id_list_parser_shapes(self):
        net = InstantNet(4)
        setup_ab(net)
        ab = net.stacks[0].instance_at(("ab",))
        assert ab._parse_id_list([[0, 1], [3, 0]]) == [(0, 1), (3, 0)]
        assert ab._parse_id_list("junk") is None
        assert ab._parse_id_list([[0]]) is None
        assert ab._parse_id_list([[9, 0]]) is None  # unknown pid
        assert ab._parse_id_list([[0, -1]]) is None
        assert ab._parse_id_list([]) == []


class TestDeliveryDataclass:
    def test_msg_id_property(self):
        d = AbDelivery(sender=2, rbid=7, payload=b"x", sequence=0)
        assert d.msg_id == (2, 7)

    def test_frozen(self):
        d = AbDelivery(sender=2, rbid=7, payload=b"x", sequence=0)
        with pytest.raises(AttributeError):
            d.sender = 3  # type: ignore[misc]

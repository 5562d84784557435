"""Frame coalescing: flush windows, link containers, batch receive,
byte-identity off."""

from repro.core.config import GroupConfig
from repro.core.stack import ControlBlock, Stack
from repro.core.wire import (
    MAX_BATCH_FRAMES,
    channel_units,
    decode_batch_views,
    encode_batch,
    encode_frame,
    is_batch,
)
from repro.net.network import LanSimulation

from util import InstantNet


def make_stack(config=None, pid=0):
    sent = []
    stack = Stack(
        config or GroupConfig(4),
        pid,
        outbox=lambda dest, data: sent.append((dest, data)),
    )
    return stack, sent


class TestConfigKnobs:
    def test_defaults(self):
        assert GroupConfig(4).batching is True
        assert MAX_BATCH_FRAMES == 64 * 64


class TestFlushWindow:
    def test_no_window_means_bare_frames(self):
        stack, sent = make_stack()
        stack.broadcast_frame(("t",), 0, b"x")
        assert len(sent) == 4
        assert not any(is_batch(data) for _, data in sent)

    def test_lone_frame_travels_bare(self):
        """A frame sent inside a window reaches the outbox at once, bare."""
        stack, sent = make_stack()
        with stack.coalesce():
            stack.send_frame(1, ("t",), 0, b"solo")
            assert sent == [(1, encode_frame(("t",), 0, b"solo"))]

    def test_batching_off_window_is_noop(self):
        stack, sent = make_stack(GroupConfig(4, batching=False))
        with stack.coalesce():
            stack.send_frame(1, ("t",), 0, b"a")
            stack.send_frame(1, ("t",), 0, b"b")
            assert len(sent) == 2  # emitted immediately, not parked
        assert not any(is_batch(data) for _, data in sent)

    def test_windowed_burst_hands_outbox_no_container(self):
        """Only a runtime's link builds containers: a windowed atomic
        broadcast burst, and every reply it provokes, reaches the outbox
        as bare frames."""
        net = InstantNet(4)
        sent = []
        for pid, stack in enumerate(net.stacks):
            original = stack._outbox

            def recording(dest, data, original=original):
                sent.append(data)
                original(dest, data)

            stack._outbox = recording
        abs_ = [stack.create("ab", ("t",)) for stack in net.stacks]
        for pid, stack in enumerate(net.stacks):
            with stack.coalesce():
                for index in range(8):
                    abs_[pid].broadcast(b"%d-%d" % (pid, index))
        net.run()
        assert all(ab.delivered_count == 32 for ab in abs_)
        assert sent and not any(is_batch(data) for data in sent)


class TestChannelUnits:
    FRAMES = [encode_frame(("t",), 0, b"m%d" % k) for k in range(5)]

    def test_lone_frame_stays_bare(self):
        assert channel_units(self.FRAMES[:1]) == self.FRAMES[:1]

    def test_run_leaves_as_one_flat_container(self):
        (unit,) = channel_units(self.FRAMES)
        assert [bytes(m) for m in decode_batch_views(unit)] == self.FRAMES

    def test_frame_cap_splits(self):
        units = channel_units(self.FRAMES, max_frames=2)
        assert units[:2] == [encode_batch(self.FRAMES[:2]), encode_batch(self.FRAMES[2:4])]
        assert units[2] == self.FRAMES[4]  # the remainder of one travels bare
        assert channel_units(self.FRAMES, max_frames=1) == self.FRAMES

    def test_byte_cap_splits_before_passing_it(self):
        size = len(self.FRAMES[0])
        # Room for a two-member container (5 + 2 * (4 + size) bytes), not three.
        units = channel_units(self.FRAMES, max_bytes=5 + 2 * (4 + size) + 4 + size - 1)
        assert all(len(unit) <= 5 + 2 * (4 + size) for unit in units)
        assert units == [
            encode_batch(self.FRAMES[:2]),
            encode_batch(self.FRAMES[2:4]),
            self.FRAMES[4],
        ]

    def test_oversized_frame_travels_bare(self):
        big = encode_frame(("t",), 0, b"x" * 100)
        units = channel_units([self.FRAMES[0], big, self.FRAMES[1]], max_bytes=64)
        assert units == [self.FRAMES[0], big, self.FRAMES[1]]


class TestReceiveBatches:
    def test_batch_members_all_routed(self):
        stack, _ = make_stack()
        frames = [encode_frame(("nowhere", k), 0, b"x") for k in range(3)]
        stack.receive(1, encode_batch(frames))
        assert stack.stats.frames_received == 3
        assert stack.stats.batches_received == 1
        assert stack.stats.frames_decoalesced == 3
        assert stack.stats.ooc_stored == 3  # no instance: parked, not lost

    def test_malformed_batch_dropped_whole(self):
        stack, _ = make_stack()
        data = encode_batch([encode_frame(("t",), 0, b"x")] * 2)
        stack.receive(1, data[:-1])  # truncated container
        assert stack.stats.dropped.get("malformed-batch") == 1
        assert stack.stats.frames_received == 0

    def test_malformed_member_drops_only_itself(self):
        stack, _ = make_stack()
        good = encode_frame(("nowhere",), 0, b"x")
        bad = b"\x01\xff\xff"  # right version byte, garbage body
        stack.receive(1, encode_batch([good, bad, good]))
        assert stack.stats.dropped.get("malformed-frame") == 1
        assert stack.stats.frames_received == 3  # counted, then one dropped
        assert stack.stats.ooc_stored == 2

    def test_nesting_depth_capped(self):
        """Containers are flat, since no correct sender nests them: a
        member that is itself a container is dropped as a malformed batch
        and charged to the sender, and its sibling frames still route."""
        stack, _ = make_stack()
        frame = encode_frame(("nowhere",), 0, b"x")
        stack.receive(1, encode_batch([frame, encode_batch([frame, frame])]))
        assert stack.stats.dropped.get("malformed-batch") == 1
        assert stack.ledger.offenses(1) == {"malformed-batch": 1}
        assert stack.stats.frames_received == 1
        assert stack.stats.ooc_stored == 1


def run_burst_traffic(seed_style, monkeypatch, *, batching=False):
    """Drive a small atomic-broadcast burst and record every channel unit
    each stack hands its runtime, as (src, dest, bytes) in order.

    With *seed_style* the pre-batching broadcast path is restored:
    ``send_all`` becomes the per-destination encode-and-send loop the
    seed shipped with, bypassing ``broadcast_frame`` entirely.
    """
    if seed_style:

        def legacy_send_all(self, mtype, payload):
            for dest in self.config.process_ids:
                self.stack.send_frame(dest, self.path, mtype, payload)

        monkeypatch.setattr(ControlBlock, "send_all", legacy_send_all)

    sim = LanSimulation(GroupConfig(4, batching=batching), seed=11)
    traffic = []
    for pid, stack in enumerate(sim.stacks):
        original = stack._outbox

        def recording(dest, data, pid=pid, original=original):
            traffic.append((pid, dest, data))
            original(dest, data)

        stack._outbox = recording

    delivered = []
    for pid, stack in enumerate(sim.stacks):
        ab = stack.create("ab", ("t",))
        if pid == 0:
            ab.on_deliver = lambda _i, d: delivered.append(d.payload)
    for pid in (0, 2):
        sim.stacks[pid].instance_at(("t",)).broadcast(b"msg-%d" % pid)
    sim.run(until=lambda: len(delivered) == 2, max_time=60)
    assert sorted(delivered) == [b"msg-0", b"msg-2"]
    return traffic, sim


class TestByteIdentity:
    def test_batching_off_matches_seed_traffic(self, monkeypatch):
        """With batching off, every channel unit -- content, destination
        and order -- is byte-identical to the seed's per-destination
        encode loop."""
        seed, _ = run_burst_traffic(True, monkeypatch)
        current, _ = run_burst_traffic(False, monkeypatch)
        assert current == seed

    def test_batching_on_coalesces_and_still_delivers(self, monkeypatch):
        """Batching on: the link buffers put containers on the wire, the
        stacks still hand their outboxes bare frames, and the burst still
        delivers (run_burst_traffic asserts delivery).  Frame *content*
        may legitimately differ from the unbatched run -- coalescing
        shifts arrival timing, so agreement rounds see different vectors
        -- but the delivered messages must not."""
        traffic, sim = run_burst_traffic(False, monkeypatch, batching=True)
        assert sim.link_batches > 0 and sim.batches_on_wire == sim.link_batches
        assert not any(is_batch(data) for _, _, data in traffic)

"""Frame coalescing: flush windows, batch receive, byte-identity off."""

from repro.core.config import GroupConfig
from repro.core.stack import CHANNEL_HEADER_BYTES, ControlBlock, Stack
from repro.core.wire import (
    MAX_BATCH_DEPTH,
    SEND_BATCH_FRAMES,
    decode_batch_views,
    encode_batch,
    encode_frame,
    is_batch,
)
from repro.net.network import LanSimulation


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
        assert SEND_BATCH_FRAMES == 64


class TestFlushWindow:
    def test_no_window_means_bare_frames(self):
        stack, sent = make_stack()
        stack.broadcast_frame(("t",), 0, b"x")
        assert len(sent) == 4
        assert not any(is_batch(data) for _, data in sent)

    def test_window_coalesces_per_destination(self):
        stack, sent = make_stack()
        with stack.coalesce():
            stack.broadcast_frame(("t",), 0, b"one")
            stack.broadcast_frame(("t",), 1, b"two")
            assert sent == []  # parked until the window closes
        assert len(sent) == 4
        for dest, data in sent:
            frames = [bytes(m) for m in decode_batch_views(data)]
            assert len(frames) == 2
            assert b"one" in frames[0] and b"two" in frames[1]
        assert stack.stats.batches_sent == 4
        assert stack.stats.frames_coalesced == 8
        assert stack.stats.header_bytes_saved == 4 * CHANNEL_HEADER_BYTES

    def test_lone_frame_travels_bare(self):
        """One frame in the window: no container, byte-identical."""
        stack, sent = make_stack()
        with stack.coalesce():
            stack.send_frame(1, ("t",), 0, b"solo")
        assert sent == [(1, encode_frame(("t",), 0, b"solo"))]
        assert stack.stats.batches_sent == 0

    def test_windows_nest_and_flush_once(self):
        stack, sent = make_stack()
        with stack.coalesce():
            stack.send_frame(1, ("t",), 0, b"a")
            with stack.coalesce():
                stack.send_frame(1, ("t",), 0, b"b")
            assert sent == []  # inner exit does not flush
        assert len(sent) == 1
        assert len(decode_batch_views(sent[0][1])) == 2

    def test_cap_splits_long_windows(self):
        stack, sent = make_stack()
        with stack.coalesce():
            for k in range(2 * SEND_BATCH_FRAMES + 1):
                stack.send_frame(1, ("t",), 0, b"m%d" % k)
        sizes = [
            len(decode_batch_views(data)) if is_batch(data) else 1 for _, data in sent
        ]
        assert sizes == [SEND_BATCH_FRAMES, SEND_BATCH_FRAMES, 1]

    def test_batching_off_window_is_noop(self):
        stack, sent = make_stack(GroupConfig(4, batching=False))
        with stack.coalesce():
            stack.send_frame(1, ("t",), 0, b"a")
            stack.send_frame(1, ("t",), 0, b"b")
            assert len(sent) == 2  # emitted immediately, not parked
        assert not any(is_batch(data) for _, data in sent)
        assert stack.stats.batches_sent == 0


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
        stack, _ = make_stack()
        unit = encode_frame(("nowhere",), 0, b"x")
        for _ in range(MAX_BATCH_DEPTH + 1):
            unit = encode_batch([unit])
        stack.receive(1, unit)
        assert stack.stats.dropped.get("batch-too-deep") == 1
        assert stack.stats.ooc_stored == 0

    def test_nested_within_cap_unwrapped(self):
        stack, _ = make_stack()
        unit = encode_frame(("nowhere",), 0, b"x")
        for _ in range(MAX_BATCH_DEPTH - 1):
            unit = encode_batch([unit])
        stack.receive(1, unit)
        assert stack.stats.ooc_stored == 1

    def test_replies_to_one_arrival_coalesce(self):
        """The cascade: a batch of two INITs provokes two ECHO broadcasts
        within one receive window, so each peer gets them as one batch."""
        # Capture the two INIT frames a sender broadcasts toward pid 0.
        sender, sender_out = make_stack(pid=1)
        for tag in ("a", "b"):
            rb = sender.create("rb", (tag,), sender=1)
            rb.broadcast(b"payload-" + tag.encode())
        init_frames = [data for dest, data in sender_out if dest == 0]
        assert len(init_frames) == 2

        receiver, sent = make_stack(pid=0)

        for tag in ("a", "b"):
            receiver.create("rb", (tag,), sender=1)
        receiver.receive(1, encode_batch(init_frames))
        echo_units = [data for dest, data in sent if dest == 2]
        assert len(echo_units) == 1
        assert len(decode_batch_views(echo_units[0])) == 2
        assert receiver.stats.batches_sent == 4  # one per peer incl. self


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
    return traffic


class TestByteIdentity:
    def test_batching_off_matches_seed_traffic(self, monkeypatch):
        """With batching off, every channel unit -- content, destination
        and order -- is byte-identical to the seed's per-destination
        encode loop."""
        seed = run_burst_traffic(True, monkeypatch)
        current = run_burst_traffic(False, monkeypatch)
        assert current == seed

    def test_batching_on_coalesces_and_still_delivers(self, monkeypatch):
        """Batching on: batch containers actually appear on the wire and
        the burst still delivers (run_burst_traffic asserts delivery).
        Frame *content* may legitimately differ from the unbatched run --
        coalescing shifts arrival timing, so agreement rounds see
        different vectors -- but the delivered messages must not."""
        traffic = run_burst_traffic(False, monkeypatch, batching=True)
        assert any(is_batch(data) for _, _, data in traffic)

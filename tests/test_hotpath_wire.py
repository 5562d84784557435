"""Tests for the hot-path receive machinery: zero-copy decoders, the
validate-don't-decode lazy payload contract, the content-addressed
frame-parse memo, and the raw-payload relay path.

The load-bearing property is *parity*: the payload validator must
accept exactly the encodings the value decoder accepts.  A validator
laxer than the decoder would let a Byzantine payload relay cleanly and
blow up at a later hop (which would then misbehavior-charge the
innocent relay); a stricter one would drop valid frames.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import GroupConfig
from repro.core.errors import WireFormatError
from repro.core.mbuf import Mbuf
from repro.core.stack import ControlBlock, Stack
from repro.core.wire import (
    FASTPATH_MEMO_FRAME_MAX,
    _validate_from,
    decode_batch_views,
    decode_frame_ex,
    decode_value,
    encode_batch,
    encode_frame,
    encode_frame_from_prefix_raw,
    encode_frame_prefix,
    encode_payload,
    encode_payload_item,
    encode_value,
    fastpath_memo_clear,
    frame_fastpath,
    frame_path_key,
    splice_list_payload,
)
from repro.crypto.hashing import hash_bytes

PATH =("t", "vect", 2, "mvc", "bc")


def _random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(8 if depth < 3 else 6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.randrange(-(2**40), 2**40)
    if kind == 3:
        return rng.randrange(256)
    if kind == 4:
        return rng.randbytes(rng.randrange(40))
    if kind == 5:
        return "".join(chr(rng.randrange(32, 0x2FFF)) for _ in range(rng.randrange(8)))
    return [_random_value(rng, depth + 1) for _ in range(rng.randrange(5))]


# -- bytes-like input parity ---------------------------------------------------


class TestBytesLikeInputs:
    """Every decoder accepts bytes, bytearray and memoryview alike."""

    def test_value_roundtrip_from_all_buffer_types(self):
        rng = random.Random(7)
        for _ in range(50):
            value = _random_value(rng)
            encoded = encode_value(value)
            assert decode_value(encoded) == value
            assert decode_value(bytearray(encoded)) == value
            assert decode_value(memoryview(encoded)) == value
            # A view into a larger buffer (the batch-member situation).
            padded = b"\xee" + encoded + b"\xee"
            assert decode_value(memoryview(padded)[1:-1]) == value

    def test_frame_roundtrip_from_all_buffer_types(self):
        frame = encode_frame(PATH, 3, [1, [b"xy", "s"], None])
        for raw in (frame, bytearray(frame), memoryview(frame)):
            path, mtype, payload, raw_payload = decode_frame_ex(raw)
            assert (path, mtype, payload) == (PATH, 3, [1, [b"xy", "s"], None])
            assert bytes(raw_payload) == encode_value(payload)
            assert frame_path_key(raw) == encode_value(list(PATH))

    def test_batch_views_alias_the_buffer(self):
        frames = [encode_frame(PATH, i, [i]) for i in range(4)]
        batch = encode_batch(frames)
        views = decode_batch_views(batch)
        assert [bytes(v) for v in views] == frames
        for view in views:
            assert isinstance(view, memoryview)
            assert view.obj is batch  # zero-copy: same backing buffer
        assert decode_batch_views(bytearray(batch)) == frames


# -- validator parity ----------------------------------------------------------


class TestValidatorParity:
    """:func:`_validate_from` accepts exactly the encodings
    :func:`decode_value` decodes -- the contract that makes a lazy
    payload's deferred decode infallible."""

    @staticmethod
    def _validate_ok(data) -> bool:
        try:
            return _validate_from(data, 0, 0) == len(data)
        except WireFormatError:
            return False

    @staticmethod
    def _decode_ok(data) -> bool:
        try:
            decode_value(data)
        except WireFormatError:
            return False
        return True

    def test_parity_on_valid_encodings(self):
        rng = random.Random(11)
        for _ in range(200):
            encoded = encode_value(_random_value(rng))
            assert self._validate_ok(encoded) and self._decode_ok(encoded)

    def test_parity_on_mutations(self):
        # Truncations, bit flips, extensions: the validator and the
        # decoder must agree on every single corruption.
        rng = random.Random(13)
        for _ in range(150):
            encoded = encode_value(_random_value(rng))
            corruptions = [encoded[:cut] for cut in range(len(encoded))]
            corruptions.append(encoded + b"\x00")
            for _ in range(10):
                mutated = bytearray(encoded)
                mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
                corruptions.append(bytes(mutated))
            for candidate in corruptions:
                assert self._validate_ok(candidate) == self._decode_ok(candidate), (
                    f"validator/decoder disagree on {candidate!r}"
                )

    def test_depth_budget_matches_decoder(self):
        # 16 nested lists decode; 17 do not.  The validator must flip at
        # exactly the same depth.
        def nested(depth):
            value = []
            for _ in range(depth - 1):
                value = [value]
            return value

        verdicts = {}
        for depth in range(14, 19):
            encoded = b"\x06\x00\x00\x00\x01" * (depth - 1) + encode_value([])
            if depth <= 16:
                assert encoded == encode_value(nested(depth))
            verdicts[depth] = self._decode_ok(encoded)
            assert self._validate_ok(encoded) == verdicts[depth]
        assert verdicts == {14: True, 15: True, 16: True, 17: False, 18: False}
        # In payload position the frame list is one level up: 15 nested
        # lists parse, 16 do not, so every accepted payload re-encodes
        # into a frame.
        prefix = encode_frame_prefix(PATH)
        for depth, ok in ((15, True), (16, False)):
            frame = encode_frame_from_prefix_raw(prefix, 0, encode_value(nested(depth)))
            assert (frame_fastpath(frame) is not None) == ok
            if ok:
                assert encode_frame(PATH, 0, decode_frame_ex(frame)[2]) == frame

    def test_lazy_payload_matches_eager_payload(self):
        rng = random.Random(17)
        for _ in range(100):
            payload = _random_value(rng)
            frame = encode_frame(PATH, 2, payload)
            _path, mtype, value, raw = decode_frame_ex(frame)
            key, lazy_mtype, lazy_raw = frame_fastpath(frame)
            assert key == frame_path_key(frame)
            assert (lazy_mtype, lazy_raw) == (mtype, raw)
            assert type(raw) is bytes
            assert decode_value(lazy_raw) == value == payload


# -- malformed batch fuzz ------------------------------------------------------


class TestMalformedBatchFuzz:
    def test_truncated_length_prefixes(self):
        batch = encode_batch([encode_frame(PATH, 0, [1, 2]), encode_frame(PATH, 1, None)])
        for cut in range(len(batch)):
            with pytest.raises(WireFormatError):
                decode_batch_views(batch[:cut]) if cut else decode_batch_views(b"")

    def test_member_length_overruns_container(self):
        frame = encode_frame(PATH, 0, None)
        batch = bytearray(encode_batch([frame, frame]))
        # Inflate the first member's length prefix so its slice would
        # overlap the second member and run past the container.
        batch[5:9] = (len(frame) + 1000).to_bytes(4, "big")
        with pytest.raises(WireFormatError):
            decode_batch_views(bytes(batch))

    def test_random_mutations_never_crash_and_views_match_copies(self):
        rng = random.Random(23)
        frames = [encode_frame(PATH, i % 3, [i, bytes(i)]) for i in range(5)]
        batch = encode_batch(frames)
        for _ in range(300):
            mutated = bytearray(batch)
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            data = bytes(mutated)
            try:
                views = decode_batch_views(data)
            except WireFormatError:
                continue  # rejected cleanly, never an arbitrary exception
            # Accepted: the members tile the container exactly.
            assert 5 + sum(4 + len(v) for v in views) == len(data)


# -- the frame-parse memo ------------------------------------------------------


class TestFrameFastpath:
    def setup_method(self):
        fastpath_memo_clear()

    def teardown_method(self):
        fastpath_memo_clear()

    def test_matches_unmemoized_parse(self):
        frame = encode_frame(PATH, 1, [7, b"pp"])
        for _ in range(2):  # miss, then hit
            key, mtype, raw = frame_fastpath(frame)
            assert key == frame_path_key(frame)
            assert (mtype, decode_value(raw)) == (1, [7, b"pp"])

    def test_repeat_frames_share_the_raw_object(self):
        # A batch of 250 x 100 B messages: the memo's home ground.
        frame = encode_frame(PATH, 1, [bytes(100)] * 250)
        assert len(frame) <= FASTPATH_MEMO_FRAME_MAX
        first = frame_fastpath(frame)[2]
        second = frame_fastpath(memoryview(bytes(frame)))[2]
        assert first is second  # a hit returns the memoized parse, uncopied

    def test_rejects_batches_and_malformed(self):
        frame = encode_frame(PATH, 1, None)
        assert frame_fastpath(encode_batch([frame])) is None
        assert frame_fastpath(b"") is None
        assert frame_fastpath(b"\xff" + frame[1:]) is None
        truncated = frame[:-1]
        assert frame_fastpath(truncated) is None
        # ... and the verdicts are memoized without flipping.
        assert frame_fastpath(truncated) is None

    def test_memo_is_bounded(self):
        from repro.core.wire import _FASTPATH_MEMO_MAX, _fastpath_memo

        for i in range(_FASTPATH_MEMO_MAX + 50):
            frame_fastpath(encode_frame(PATH, 1, [i]))
        assert len(_fastpath_memo) <= _FASTPATH_MEMO_MAX

    def test_memo_pins_at_most_its_byte_budget(self):
        """A stream of batch-sized frames (100 x 8 KiB messages) pins
        nothing; frames up to the size cap are kept, the newest stays
        memoized, and what the memo pins stays within the entry cap
        times a capped frame plus its payload region."""
        from repro.core import wire

        big = [bytes(8192)] * 100
        for i in range(60):
            frame = encode_frame(PATH, i % 3, big)
            key, mtype, raw = frame_fastpath(frame)
            assert (key, mtype) == (frame_path_key(frame), i % 3)
            assert decode_value(raw) == big
            assert not wire._fastpath_memo
        cap = FASTPATH_MEMO_FRAME_MAX
        head = len(encode_frame(PATH, 1, b""))
        for i in range(40):
            frame_fastpath(encode_frame(PATH, 1, bytes([i]) * (cap - head + 1)))
            first = frame_fastpath(encode_frame(PATH, 1, bytes([i]) * (cap - head)))
        assert len(wire._fastpath_memo) == 40
        assert max(map(len, wire._fastpath_memo)) == cap
        assert frame_fastpath(encode_frame(PATH, 1, bytes([39]) * (cap - head))) is first
        pinned = sum(
            len(key) + (len(parsed[2]) if parsed else 0)
            for key, parsed in wire._fastpath_memo.items()
        )
        assert pinned <= len(wire._fastpath_memo) * 2 * cap

    def test_large_batch_member_parses_in_place_into_a_read_only_view(self):
        from repro.core import wire

        frame = encode_frame(PATH, 2, [bytes(8192)] * 8)
        assert len(frame) > FASTPATH_MEMO_FRAME_MAX
        batch = encode_batch([frame])
        (member,) = decode_batch_views(batch)
        key, mtype, raw = frame_fastpath(member)
        assert type(key) is bytes and type(raw) is memoryview
        assert raw.readonly and raw.obj is batch
        assert (key, mtype, raw) == (frame_path_key(frame), 2, encode_value([bytes(8192)] * 8))
        (truncated,) = decode_batch_views(encode_batch([frame[:-1]]))
        assert frame_fastpath(truncated) is None
        assert not wire._fastpath_memo

    def test_a_raw_view_cannot_be_written_through(self):
        """A writable buffer still yields a read-only payload view."""
        frame = bytearray(encode_frame(PATH, 2, bytes(FASTPATH_MEMO_FRAME_MAX)))
        raw = frame_fastpath(memoryview(frame))[2]
        assert type(raw) is memoryview and raw.obj is frame
        with pytest.raises(TypeError):
            raw[-1] = 1
        with pytest.raises(TypeError):
            memoryview(raw)[-1] = 1


# -- lazy mbufs ----------------------------------------------------------------


class TestLazyMbuf:
    def test_payload_decodes_on_first_access(self):
        raw = encode_value([1, [2, 3]])
        mbuf = Mbuf.lazy(1, PATH, 0, raw, wire_size=len(raw))
        assert mbuf.payload == [1, [2, 3]]
        assert mbuf.payload is mbuf.payload  # decoded once, then cached

    def test_setter_overrides(self):
        mbuf = Mbuf.lazy(1, PATH, 0, encode_value(5))
        mbuf.payload = "replaced"
        assert mbuf.payload == "replaced"

    def test_eager_construction_unchanged(self):
        mbuf = Mbuf(src=2, path=PATH, mtype=1, payload=[9], wire_size=3)
        assert mbuf.payload == [9]
        assert mbuf.raw_payload is None
        assert "p2" in mbuf.describe()


# -- raw splice send path ------------------------------------------------------


class _Recorder(ControlBlock):
    protocol = "rec"

    def __init__(self, stack, path, parent=None, purpose=None):
        super().__init__(stack, path, parent, purpose)
        self.inputs: list[tuple[int, int, object]] = []

    def input(self, mbuf: Mbuf) -> None:
        self.inputs.append((mbuf.src, mbuf.mtype, mbuf.payload))


class TestRawSplice:
    def _stack_and_outbox(self):
        sent: list[tuple[int, bytes]] = []
        stack = Stack(GroupConfig(4), 0, outbox=lambda d, b: sent.append((d, b)))
        return stack, sent

    def test_send_all_raw_is_byte_identical_to_send_all(self):
        for payload in (None, 7, [1, [b"x", "y"], True], bytes(50)):
            stack, sent = self._stack_and_outbox()
            block = _Recorder(stack, PATH)
            block.send_all(2, payload)
            plain = [data for _, data in sent]
            stack2, sent2 = self._stack_and_outbox()
            block2 = _Recorder(stack2, PATH)
            block2.send_all_raw(2, encode_value(payload))
            assert [data for _, data in sent2] == plain
            assert stack2.stats.frames_sent == stack.stats.frames_sent

    def test_spliced_list_payload_is_byte_identical_to_encode_payload(self):
        rng = random.Random(5)
        for _ in range(200):
            items = [_random_value(rng) for _ in range(rng.randrange(4))]
            spliced = splice_list_payload([encode_payload_item(v) for v in items])
            assert spliced == encode_payload(items)
        # An item is refused at exactly the depth its list would be.
        for depth in range(12, 17):
            item: list = []
            for _ in range(depth - 1):
                item = [item]
            try:
                whole = encode_payload([item])
            except ValueError:
                with pytest.raises(ValueError):
                    encode_payload_item(item)
            else:
                assert splice_list_payload([encode_payload_item(item)]) == whole

    def test_broadcast_raw_without_cached_prefix(self):
        stack, sent = self._stack_and_outbox()
        stack.broadcast_frame_raw(("nowhere",), 1, encode_value([5]))
        assert len(sent) == 4
        assert decode_frame_ex(sent[0][1])[:3] == (("nowhere",), 1, [5])


# -- end-to-end: lazy receive + malformed payload defense ---------------------


class TestReceiveFastPathBehavior:
    def setup_method(self):
        fastpath_memo_clear()

    def teardown_method(self):
        fastpath_memo_clear()

    def test_registered_instance_receives_lazy_payload(self):
        stack = Stack(GroupConfig(4), 0, outbox=lambda d, b: None)
        block = _Recorder(stack, PATH)
        stack.receive(1, encode_frame(PATH, 2, [4, None]))
        assert block.inputs == [(1, 2, [4, None])]

    def test_malformed_payload_dropped_and_charged_before_input(self):
        stack = Stack(GroupConfig(4), 0, outbox=lambda d, b: None)
        block = _Recorder(stack, PATH)
        frame = bytearray(encode_frame(PATH, 2, "abc"))
        frame[-1] = 0xFF  # invalid utf-8 tail: decoder and validator reject
        before = stack.stats.misbehavior_reports
        stack.receive(1, bytes(frame))
        assert block.inputs == []  # never reached the protocol
        assert stack.stats.dropped["malformed-frame"] == 1
        assert stack.stats.misbehavior_reports == before + 1

    def test_batch_members_dispatch_lazily(self):
        stack = Stack(GroupConfig(4), 0, outbox=lambda d, b: None)
        block = _Recorder(stack, PATH)
        batch = encode_batch([encode_frame(PATH, i, [i]) for i in range(3)])
        stack.receive(2, batch)
        assert block.inputs == [(2, 0, [0]), (2, 1, [1]), (2, 2, [2])]

    @pytest.mark.parametrize("component", [True, [1]])
    def test_bad_path_component_dropped_as_malformed(self, component):
        stack = Stack(GroupConfig(4), 0, outbox=lambda d, b: None)
        _Recorder(stack, ("t",))
        frame = b"\x01" + encode_value([["t", component], 0, None])
        assert frame_fastpath(frame) is not None  # the skeleton parses
        before = stack.stats.misbehavior_reports
        stack.receive(1, frame)
        assert stack.stats.dropped["malformed-frame"] == 1
        assert stack.stats.misbehavior_reports == before + 1
        assert stack.ooc_pending == 0

    def test_parked_frame_keeps_owned_raw_and_delivers_like_eager(self):
        payload = [b"v" * 40, 7, None]
        delivered = {}
        for parked in (True, False):
            fastpath_memo_clear()
            stack = Stack(GroupConfig(4), 0, outbox=lambda d, b: None)
            path = ("rb-test",)
            # INIT and ECHOs carry the payload, READYs its digest.
            ready = hash_bytes(encode_value(payload))
            frames = [
                (src, encode_frame(path, mtype, ready if mtype == 2 else payload))
                for mtype in (0, 1, 2)
                for src in (1, 2, 3)
                if mtype or src == 1
            ]
            if parked:
                stored: list[Mbuf] = []
                store = stack.ooc.store
                stack.ooc.store = lambda mbuf: (stored.append(mbuf), store(mbuf))
                for src, frame in frames:
                    stack.receive(src, memoryview(bytearray(frame)))
                assert stack.ooc_pending == len(stored) == len(frames)
                assert all(type(mbuf.raw_payload) is bytes for mbuf in stored)
                block = stack.create("rb", path, sender=1)
            else:
                block = stack.create("rb", path, sender=1)
                for src, frame in frames:
                    _, mtype, value, _raw = decode_frame_ex(frame)
                    stack.route(Mbuf(src=src, path=path, mtype=mtype, payload=value))
            assert block.delivered
            delivered[parked] = block.delivered_value
        assert delivered[True] == delivered[False] == payload

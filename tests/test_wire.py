"""The wire codec: canonical values and defensive frame decoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import WireFormatError
from repro.core.wire import (
    MAX_BATCH_FRAMES,
    decode_batch_views,
    decode_frame_ex,
    decode_value,
    encode_batch,
    encode_frame,
    encode_value,
    is_batch,
)


class TestValueRoundtrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            2**64,
            -(2**64),
            b"",
            b"payload",
            "",
            "héllo",
            [],
            [1, 2, 3],
            [None, True, b"x", "y", [-5, []]],
        ],
    )
    def test_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_tuple_decodes_as_list(self):
        assert decode_value(encode_value((1, 2))) == [1, 2]

    def test_bool_distinct_from_int(self):
        assert encode_value(True) != encode_value(1)
        assert encode_value(False) != encode_value(0)

    def test_bytes_distinct_from_str(self):
        assert encode_value(b"a") != encode_value("a")

    def test_canonical_equal_values_equal_bytes(self):
        a = encode_value([b"v", [1, 2, None]])
        b = encode_value([b"v", [1, 2, None]])
        assert a == b
        # Other byte buffers encode exactly like bytes.
        assert encode_value(bytearray(b"ab")) == encode_value(memoryview(b"ab")) == encode_value(b"ab")

    def test_unencodable_type_rejected(self):
        with pytest.raises(TypeError):
            encode_value({"not": "supported"})

    def test_nesting_depth_capped(self):
        value: list = []
        for _ in range(40):
            value = [value]
        with pytest.raises(ValueError):
            encode_value(value)


class TestValueDecodeDefensive:
    """A corrupt process controls these bytes: no decode may crash."""

    def test_empty_input(self):
        with pytest.raises(WireFormatError):
            decode_value(b"")

    def test_unknown_tag(self):
        with pytest.raises(WireFormatError):
            decode_value(b"\xff")

    def test_truncated_length(self):
        with pytest.raises(WireFormatError):
            decode_value(b"\x04\x00\x00")

    def test_truncated_body(self):
        with pytest.raises(WireFormatError):
            decode_value(b"\x04\x00\x00\x00\x05ab")

    def test_trailing_garbage(self):
        with pytest.raises(WireFormatError):
            decode_value(encode_value(1) + b"\x00")

    def test_empty_int_encoding(self):
        with pytest.raises(WireFormatError):
            decode_value(b"\x03\x00\x00\x00\x00")

    def test_invalid_utf8(self):
        with pytest.raises(WireFormatError):
            decode_value(b"\x05\x00\x00\x00\x01\xff")

    def test_huge_length_field_rejected_without_allocation(self):
        with pytest.raises(WireFormatError):
            decode_value(b"\x04\xff\xff\xff\xff")

    def test_list_count_bomb_rejected(self):
        # Claims 2^31 elements with no bodies.
        with pytest.raises(WireFormatError):
            decode_value(b"\x06\x80\x00\x00\x00")

    def test_deep_nesting_rejected(self):
        data = b"\x06\x00\x00\x00\x01" * 30 + b"\x00"
        with pytest.raises(WireFormatError):
            decode_value(data)

    @given(st.binary(max_size=200))
    @settings(max_examples=300)
    def test_random_bytes_never_crash(self, data):
        try:
            decode_value(data)
        except WireFormatError:
            pass


class TestFrames:
    def test_roundtrip(self):
        path = ("ab", 0, "mvc", 3, "rb", 1, 2, 0)
        encoded = encode_frame(path, 2, b"payload")
        assert decode_frame_ex(encoded)[:3] == (path, 2, b"payload")

    def test_empty_path(self):
        assert decode_frame_ex(encode_frame((), 0, None))[:3] == ((), 0, None)

    def test_mtype_range_enforced_on_encode(self):
        with pytest.raises(ValueError):
            encode_frame(("x",), 256, None)
        with pytest.raises(ValueError):
            encode_frame(("x",), -1, None)

    def test_unsupported_version(self):
        frame = bytearray(encode_frame(("x",), 0, None))
        frame[0] = 99
        with pytest.raises(WireFormatError):
            decode_frame_ex(bytes(frame))

    def test_empty_frame(self):
        with pytest.raises(WireFormatError):
            decode_frame_ex(b"")

    def test_body_not_a_list(self):
        with pytest.raises(WireFormatError):
            decode_frame_ex(b"\x01" + encode_value(b"nope"))

    def test_bool_path_component_rejected(self):
        frame = b"\x01" + encode_value([[True], 0, None])
        with pytest.raises(WireFormatError):
            decode_frame_ex(frame)

    def test_nested_path_component_rejected(self):
        frame = b"\x01" + encode_value([[[1]], 0, None])
        with pytest.raises(WireFormatError):
            decode_frame_ex(frame)

    def test_out_of_range_mtype_rejected_on_decode(self):
        frame = b"\x01" + encode_value([["x"], 999, None])
        with pytest.raises(WireFormatError):
            decode_frame_ex(frame)

    @given(st.binary(max_size=300))
    @settings(max_examples=300)
    def test_random_bytes_never_crash(self, data):
        try:
            decode_frame_ex(data)
        except WireFormatError:
            pass


class TestBatchContainers:
    def frames(self):
        return [encode_frame(("t", i), 0, b"x" * i) for i in range(3)]

    def test_roundtrip(self):
        frames = self.frames()
        assert decode_batch_views(encode_batch(frames)) == frames

    def test_is_batch_discriminates(self):
        frames = self.frames()
        assert is_batch(encode_batch(frames))
        assert not is_batch(frames[0])
        assert not is_batch(b"")

    def test_single_frame_batch_roundtrip(self):
        frame = encode_frame(("t",), 1, b"solo")
        assert decode_batch_views(encode_batch([frame])) == [frame]

    def test_nested_batch_roundtrip(self):
        """A batch is itself a channel unit, so it may ride in a batch."""
        inner = encode_batch(self.frames())
        outer = encode_batch([inner, self.frames()[0]])
        members = decode_batch_views(outer)
        assert members[0] == inner
        assert decode_batch_views(members[0]) == self.frames()

    def test_empty_batch_rejected_on_encode(self):
        with pytest.raises(ValueError):
            encode_batch([])

    def test_over_cap_rejected_on_encode(self):
        frame = encode_frame(("t",), 0, None)
        with pytest.raises(ValueError):
            encode_batch([frame] * (MAX_BATCH_FRAMES + 1))

    def test_empty_member_rejected_on_encode(self):
        with pytest.raises(ValueError):
            encode_batch([b""])

    def test_decode_plain_frame_rejected(self):
        with pytest.raises(WireFormatError, match="not a batch"):
            decode_batch_views(self.frames()[0])

    def test_decode_truncated_count(self):
        with pytest.raises(WireFormatError):
            decode_batch_views(b"\x42\x00\x00")

    def test_decode_zero_count(self):
        with pytest.raises(WireFormatError, match="empty"):
            decode_batch_views(b"\x42\x00\x00\x00\x00")

    def test_decode_count_over_cap_without_allocation(self):
        with pytest.raises(WireFormatError, match="cap"):
            decode_batch_views(b"\x42\xff\xff\xff\xff")

    def test_decode_truncated_member(self):
        data = encode_batch(self.frames())
        with pytest.raises(WireFormatError):
            decode_batch_views(data[:-1])

    def test_decode_trailing_garbage(self):
        with pytest.raises(WireFormatError, match="trailing"):
            decode_batch_views(encode_batch(self.frames()) + b"\x00")

    def test_decode_empty_member(self):
        # count=1, member length 0.
        with pytest.raises(WireFormatError, match="empty frame"):
            decode_batch_views(b"\x42\x00\x00\x00\x01\x00\x00\x00\x00")

    @given(st.binary(max_size=300))
    @settings(max_examples=300)
    def test_random_bytes_never_crash(self, data):
        try:
            decode_batch_views(data)
        except WireFormatError:
            pass


@given(
    st.recursive(
        st.none()
        | st.booleans()
        | st.integers()
        | st.binary(max_size=64)
        | st.text(max_size=32),
        lambda children: st.lists(children, max_size=6),
        max_leaves=25,
    )
)
@settings(max_examples=300)
def test_property_value_roundtrip(value):
    assert decode_value(encode_value(value)) == value


@given(
    st.lists(
        st.integers(min_value=0, max_value=2**31) | st.text(max_size=12),
        max_size=8,
    ),
    st.integers(min_value=0, max_value=255),
    st.binary(max_size=128),
)
@settings(max_examples=200)
def test_property_frame_roundtrip(path, mtype, payload):
    decoded_path, decoded_mtype, decoded_payload = decode_frame_ex(
        encode_frame(tuple(path), mtype, payload)
    )[:3]
    assert decoded_path == tuple(path)
    assert decoded_mtype == mtype
    assert decoded_payload == payload

"""Wire encoding for RITAS frames and structured values.

Every frame carries ``(path, mtype, payload)``:

- *path* is the hierarchical protocol-instance identifier produced by
  control-block chaining (Section 3.3 of the paper) -- a tuple of small
  ints and short strings;
- *mtype* is the message kind within the protocol (INIT/ECHO/READY/...);
- *payload* is a structured value.

The value codec is a small canonical binary format covering exactly the
types the protocols exchange: ``None`` (the paper's ⊥ default value),
bools, ints, bytes, strs, and lists thereof.  It is canonical --
equal values encode to equal bytes -- which the consensus layers rely on
to compare "the same value v" across processes.

Besides single frames, the channel may carry *batch* containers
(:func:`encode_batch`): several frames destined for the same peer,
coalesced so the transport below pays its fixed per-message costs once
per batch instead of once per frame (the dominant term in the paper's
Table 1 cost decomposition).

Decoding is defensive: any malformed input raises
:class:`~repro.core.errors.WireFormatError`, never an arbitrary Python
exception, so corrupt peers cannot crash the stack.

There is one frame parser, :func:`_parse_frame`: it keeps the path as
its encoded bytes (the demux key), decodes the mtype, and validates the
payload region without decoding it.  :func:`frame_path` turns a path key
into a tuple.  :func:`frame_fastpath` (the memoized parse the stack
runs), :func:`decode_frame_ex` and :func:`frame_priority` are
compositions of those two.

Hot-path notes (the per-frame CPU cost here is the fixed cost the
paper's Table 1 decomposition says dominates LAN latency):

- decoders accept any bytes-like object (``bytes``, ``bytearray``,
  ``memoryview``), and :func:`decode_batch_views` splits a batch into
  zero-copy :class:`memoryview` members;
- the parse returns the *raw encoded payload* as owned ``bytes``; since
  the codec is canonical, those bytes are exactly what
  ``encode_value(payload)`` would produce, so receivers can digest, MAC
  or relay a payload without decoding or re-encoding it;
- the u32 length codec is a pre-compiled :class:`struct.Struct`, small
  non-negative ints encode through a precomputed table, and
  :func:`encode_frame_from_prefix` lets the stack reuse one encoded
  path prefix per instance instead of re-encoding the path every send.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Any, Sequence

from repro.core.errors import WireFormatError

FRAME_VERSION = 1

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_BYTES = 0x04
_T_STR = 0x05
_T_LIST = 0x06
#: Leading byte of a batch container (distinct from FRAME_VERSION, so a
#: receiver can tell batches from plain frames by the first byte).
_T_BATCH = 0x42

_MAX_DEPTH = 16
_MAX_LEN = 64 * 1024 * 1024  # defensive cap on any single field

#: Frames allowed in one batch container -- a corrupt peer must not be
#: able to make a receiver allocate unbounded frame lists.
MAX_BATCH_FRAMES = 4096
#: Frames a sender packs into one batch container; a longer run of
#: same-peer frames leaves as consecutive batches.  Read by every
#: coalescing point: the stack's flush window, the TCP link flush (which
#: counts queued units, each at most a SEND_BATCH_FRAMES container, so a
#: spliced container stays within SEND_BATCH_FRAMES ** 2 ==
#: MAX_BATCH_FRAMES members) and the simulator's link buffer.
SEND_BATCH_FRAMES = 64
#: Batches nested inside batches beyond this depth are rejected.
MAX_BATCH_DEPTH = 4

_U32 = struct.Struct(">I")
_pack_u32 = _U32.pack
_unpack_u32_from = _U32.unpack_from

#: Precomputed encodings of the small non-negative ints that dominate
#: real traffic (path components, sequence numbers, vector indices).
_SMALL_INT_ENC = tuple(
    b"\x03" + _pack_u32(len(raw := i.to_bytes((i.bit_length() + 8) // 8 + 1, "big"))) + raw
    for i in range(256)
)


def encode_value(value: Any) -> bytes:
    """Canonically encode a structured value."""
    out = bytearray()
    _encode_into(out, value, 0)
    return bytes(out)


def encode_payload(value: Any) -> bytes:
    """:func:`encode_value` at the depth a frame holds its payload: the
    region :func:`encode_frame` would write, to send with
    ``send_all_raw`` (a value one level too deep to frame is refused
    here, as :func:`encode_frame` refuses it)."""
    out = bytearray()
    _encode_into(out, value, 1)
    return bytes(out)


def _encode_into(out: bytearray, value: Any, depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise ValueError("value nesting too deep to encode")
    cls = value.__class__
    if cls is int:
        if 0 <= value < 256:
            out += _SMALL_INT_ENC[value]
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
            out.append(_T_INT)
            out += _pack_u32(len(raw))
            out += raw
    elif cls is bytes:
        out.append(_T_BYTES)
        out += _pack_u32(len(value))
        out += value
    elif value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif cls is str:
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out += _pack_u32(len(raw))
        out += raw
    elif cls is list or cls is tuple:
        out.append(_T_LIST)
        out += _pack_u32(len(value))
        depth += 1
        for item in value:
            _encode_into(out, item, depth)
    # Subclass / alternate-buffer fallbacks, in the seed's order so the
    # accepted type set is unchanged (note bool is an int subclass but
    # was matched by identity above).
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        out.append(_T_INT)
        out += _pack_u32(len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        out.append(_T_BYTES)
        out += _pack_u32(len(value))
        out += value
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out += _pack_u32(len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST)
        out += _pack_u32(len(value))
        depth += 1
        for item in value:
            _encode_into(out, item, depth)
    else:
        raise TypeError(f"cannot encode value of type {type(value).__name__}")


def decode_value(data: bytes) -> Any:
    """Decode a value produced by :func:`encode_value`.

    Accepts any bytes-like object.

    Raises:
        WireFormatError: on any malformed input, including trailing bytes.
    """
    value, offset = _decode_from(data, 0, 0)
    if offset != len(data):
        raise WireFormatError("trailing bytes after encoded value")
    return value


def _decode_from(data, offset: int, depth: int) -> tuple[Any, int]:
    size = len(data)
    if offset >= size:
        raise WireFormatError("truncated value")
    tag = data[offset]
    offset += 1
    if tag == _T_INT or tag == _T_BYTES or tag == _T_STR:
        if offset + 4 > size:
            raise WireFormatError("truncated length field")
        (length,) = _unpack_u32_from(data, offset)
        if length > _MAX_LEN:
            raise WireFormatError(f"field length {length} exceeds cap")
        offset += 4
        end = offset + length
        if end > size:
            raise WireFormatError("truncated value body")
        raw = data[offset:end]
        if tag == _T_BYTES:
            # bytes() of a bytes slice is identity; of a memoryview
            # slice it is the single copy that materializes the leaf.
            return bytes(raw), end
        if tag == _T_INT:
            if not length:
                raise WireFormatError("empty int encoding")
            return int.from_bytes(raw, "big", signed=True), end
        try:
            return str(raw, "utf-8"), end
        except UnicodeDecodeError as exc:
            raise WireFormatError("invalid utf-8 in string") from exc
    if tag == _T_LIST:
        if depth >= _MAX_DEPTH:
            raise WireFormatError("value nesting too deep")
        if offset + 4 > size:
            raise WireFormatError("truncated length field")
        (count,) = _unpack_u32_from(data, offset)
        if count > _MAX_LEN:
            raise WireFormatError(f"field length {count} exceeds cap")
        offset += 4
        items = []
        append = items.append
        depth += 1
        for _ in range(count):
            # Leaf members are decoded inline: most list members are
            # leaves, and one recursive call per member dominates decode
            # profiles otherwise.
            if offset >= size:
                raise WireFormatError("truncated value")
            member_tag = data[offset]
            if member_tag == _T_INT or member_tag == _T_BYTES or member_tag == _T_STR:
                start = offset + 1
                if start + 4 > size:
                    raise WireFormatError("truncated length field")
                (length,) = _unpack_u32_from(data, start)
                if length > _MAX_LEN:
                    raise WireFormatError(f"field length {length} exceeds cap")
                start += 4
                end = start + length
                if end > size:
                    raise WireFormatError("truncated value body")
                raw = data[start:end]
                if member_tag == _T_BYTES:
                    append(bytes(raw))
                elif member_tag == _T_INT:
                    if not length:
                        raise WireFormatError("empty int encoding")
                    append(int.from_bytes(raw, "big", signed=True))
                else:
                    try:
                        append(str(raw, "utf-8"))
                    except UnicodeDecodeError as exc:
                        raise WireFormatError("invalid utf-8 in string") from exc
                offset = end
            elif member_tag == _T_NONE:
                append(None)
                offset += 1
            elif member_tag == _T_TRUE:
                append(True)
                offset += 1
            elif member_tag == _T_FALSE:
                append(False)
                offset += 1
            else:
                item, offset = _decode_from(data, offset, depth)
                append(item)
        return items, offset
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    raise WireFormatError(f"unknown value tag 0x{tag:02x}")


def _skip_value(data, offset: int) -> int:
    """Return the offset one past the encoded value at *offset*.

    Iterative (a pending-node counter instead of recursion), touching
    only tags and length fields -- the skeleton walk behind the interned
    demux key.
    """
    size = len(data)
    remaining = 1
    while remaining:
        if offset >= size:
            raise WireFormatError("truncated value")
        tag = data[offset]
        offset += 1
        remaining -= 1
        if tag <= _T_TRUE:  # NONE / FALSE / TRUE: tag only
            continue
        if offset + 4 > size:
            raise WireFormatError("truncated length field")
        (length,) = _unpack_u32_from(data, offset)
        if length > _MAX_LEN:
            raise WireFormatError(f"field length {length} exceeds cap")
        offset += 4
        if tag == _T_LIST:
            remaining += length
        elif tag == _T_INT or tag == _T_BYTES or tag == _T_STR:
            offset += length
        else:
            raise WireFormatError(f"unknown value tag 0x{tag:02x}")
    if offset > size:
        raise WireFormatError("truncated value body")
    return offset


def _validate_value(data, offset: int) -> int:
    """Validate the encoded value at *offset* without building objects.

    Enforces exactly the checks :func:`decode_value` applies: tags,
    length caps, truncation, nesting depth, utf-8 in strings, non-empty
    ints.  Returns the end offset.

    The point of the exact match is the contract the lazy
    :class:`~repro.core.mbuf.Mbuf` payload relies on: once a region
    validates, ``decode_value`` on it cannot fail.  Weaker validation
    here would let a Byzantine sender craft a payload that relays
    cleanly but blows up when some later hop finally decodes it -- and
    that hop would charge the *relay* with misbehavior.  Validating
    costs about half of decoding, which is why the two walks stay
    separate.
    """
    return _validate_from(data, offset, 0)


def _validate_from(data, offset: int, depth: int) -> int:
    """Recursive body of :func:`_validate_value` -- the same shape as
    :func:`_decode_from` (inline leaf handling, recursion only for
    nested lists) so the two traversals accept exactly the same inputs,
    just without building any objects."""
    size = len(data)
    if offset >= size:
        raise WireFormatError("truncated value")
    tag = data[offset]
    offset += 1
    if tag <= _T_TRUE:  # NONE / FALSE / TRUE: tag only
        return offset
    if offset + 4 > size:
        raise WireFormatError("truncated length field")
    (length,) = _unpack_u32_from(data, offset)
    if length > _MAX_LEN:
        raise WireFormatError(f"field length {length} exceeds cap")
    offset += 4
    if tag == _T_BYTES:
        end = offset + length
        if end > size:
            raise WireFormatError("truncated value body")
        return end
    if tag == _T_INT:
        if not length:
            raise WireFormatError("empty int encoding")
        end = offset + length
        if end > size:
            raise WireFormatError("truncated value body")
        return end
    if tag == _T_STR:
        end = offset + length
        if end > size:
            raise WireFormatError("truncated value body")
        try:
            str(data[offset:end], "utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError("invalid utf-8 in string") from exc
        return end
    if tag == _T_LIST:
        if depth >= _MAX_DEPTH:
            raise WireFormatError("value nesting too deep")
        depth += 1
        for _ in range(length):
            if offset >= size:
                raise WireFormatError("truncated value")
            member_tag = data[offset]
            if (
                member_tag == _T_INT
                or member_tag == _T_BYTES
                or member_tag == _T_STR
            ):
                start = offset + 1
                if start + 4 > size:
                    raise WireFormatError("truncated length field")
                (member_len,) = _unpack_u32_from(data, start)
                if member_len > _MAX_LEN:
                    raise WireFormatError(f"field length {member_len} exceeds cap")
                start += 4
                end = start + member_len
                if end > size:
                    raise WireFormatError("truncated value body")
                if member_tag == _T_INT:
                    if not member_len:
                        raise WireFormatError("empty int encoding")
                elif member_tag == _T_STR:
                    try:
                        str(data[start:end], "utf-8")
                    except UnicodeDecodeError as exc:
                        raise WireFormatError("invalid utf-8 in string") from exc
                offset = end
            elif member_tag <= _T_TRUE:
                offset += 1
            else:
                offset = _validate_from(data, offset, depth)
        return offset
    raise WireFormatError(f"unknown value tag 0x{tag:02x}")


# -- frames ------------------------------------------------------------------

PathComponent = int | str
Path = tuple[PathComponent, ...]

#: ``FRAME_VERSION`` byte followed by the outer 3-element list header --
#: every well-formed plain frame starts with these 6 bytes.
_FRAME_HEAD = bytes([FRAME_VERSION, _T_LIST]) + _pack_u32(3)


def encode_frame(path: Path, mtype: int, payload: Any) -> bytes:
    """Encode one protocol frame (path + message type + payload)."""
    return encode_frame_from_prefix(encode_frame_prefix(path), mtype, payload)


def encode_frame_prefix(path: Path) -> bytes:
    """The constant leading bytes of every frame of one instance.

    Concatenating this with the encodings of ``mtype`` and ``payload``
    is byte-identical to :func:`encode_frame`; the stack caches one
    prefix per live instance so the path is encoded once, not per send.
    """
    out = bytearray(_FRAME_HEAD)
    _encode_into(out, list(path), 1)
    return bytes(out)


def encode_frame_from_prefix(prefix: bytes, mtype: int, payload: Any) -> bytes:
    """Encode a frame from a precomputed :func:`encode_frame_prefix`."""
    if not 0 <= mtype <= 0xFF:
        raise ValueError(f"mtype {mtype} out of range")
    out = bytearray(prefix)
    out += _SMALL_INT_ENC[mtype]
    _encode_into(out, payload, 1)
    return bytes(out)


def _path_end(data) -> int:
    """End offset of a plain frame's encoded path (which starts at 6).

    Checks only the frame head and the path's skeleton (tags and
    lengths); :func:`frame_path` judges the components.
    """
    if len(data) < 7 or data[0] != FRAME_VERSION or data[1] != _T_LIST:
        raise WireFormatError("not a plain frame")
    (count,) = _unpack_u32_from(data, 2)
    if count != 3 or data[6] != _T_LIST:
        raise WireFormatError("frame body is not a [path, mtype, payload] list")
    return _skip_value(data, 6)


def frame_path_key(data) -> bytes | None:
    """The raw encoded-path bytes of a plain frame, or ``None``.

    Equal to ``encode_value(list(path))`` by canonicality, so it is a
    ready-made demux key: the stack interns one per live instance and
    dispatches frames without decoding the path into Python objects.
    ``None`` means "not a plain frame with a well-formed path skeleton".
    """
    try:
        return bytes(data[6:_path_end(data)])
    except WireFormatError:
        return None


def frame_path(path_key: bytes) -> Path:
    """Decode a :func:`frame_path_key` into a path tuple.

    Raises:
        WireFormatError: the key is malformed or a component is not an
            int or a string (bools and nested lists are rejected).
    """
    components = decode_value(path_key)
    if not isinstance(components, list):
        raise WireFormatError("frame path is not a list")
    for component in components:
        if not isinstance(component, (int, str)) or isinstance(component, bool):
            raise WireFormatError("path components must be ints or strings")
    return tuple(components)


def _parse_frame(frame: bytes) -> tuple[bytes, int, bytes]:
    """Parse and validate a plain frame into ``(path_key, mtype, raw_payload)``.

    The one frame parser.  The path stays encoded (the interned demux
    key), the mtype is decoded, and the payload region is validated but
    not decoded (see :func:`_validate_value`), so decoding it later
    cannot fail.

    Raises:
        WireFormatError: *frame* is not a well-formed plain frame.
    """
    path_end = _path_end(frame)
    mtype, payload_start = _decode_from(frame, path_end, 1)
    if not isinstance(mtype, int):
        raise WireFormatError("malformed frame header")
    if not 0 <= mtype <= 0xFF:
        raise WireFormatError(f"mtype {mtype} out of range")
    # Depth 1: the payload is an element of the frame list, the depth
    # encode_frame counts it at, so every accepted payload re-encodes
    # into a frame (and is one level inside decode_value's budget).
    if _validate_from(frame, payload_start, 1) != len(frame):
        raise WireFormatError("trailing bytes after encoded value")
    return frame[6:path_end], mtype, frame[payload_start:]


def decode_frame_ex(data) -> tuple[Path, int, Any, bytes]:
    """Decode a frame into ``(path, mtype, payload, raw_payload)``.

    ``raw_payload`` is the encoded payload as owned ``bytes`` -- by
    canonicality, exactly ``encode_value(payload)``.

    Raises:
        WireFormatError: malformed frame or unsupported version.
    """
    path_key, mtype, raw = _parse_frame(bytes(data))
    return frame_path(path_key), mtype, decode_value(raw), raw


# Content-addressed parse memo for the receive path.  A broadcast hands
# the *identical* frame bytes to every destination, and in-process runs
# (the simulator, tests, the benchmark's one-process cluster) deliver
# them to n stacks -- so the same frame is parsed and validated n times.
# Keying by the full frame bytes makes the memo trivially sound (equal
# bytes parse identically) and unpoisonable (the key IS the
# attacker-controlled input).  Entries are ``_parse_frame`` results, or
# ``None`` for a frame it rejected.  Oldest entries go first, past either
# bound: the entry cap, or FASTPATH_MEMO_BYTES of pinned frame and
# payload bytes.
_FASTPATH_MEMO_MAX = 1024
_fastpath_memo: "OrderedDict[bytes, tuple[bytes, int, bytes] | None]" = OrderedDict()
_fastpath_memo_bytes = 0
_MEMO_MISS = object()

#: Most bytes the receive path's parse memo pins: each entry holds its
#: frame and a copy of the payload region.  Sized to the entry cap at
#: 8 KiB payloads, so a few large frames (a batch of many messages) stay
#: memoized without the memo growing with frame size; a frame larger
#: than the whole budget is parsed but not kept.
FASTPATH_MEMO_BYTES = 16 * 1024 * 1024


def _memo_cost(frame: bytes, parsed: "tuple[bytes, int, bytes] | None") -> int:
    return len(frame) + (len(parsed[2]) if parsed is not None else 0)


def frame_fastpath(data) -> tuple[bytes, int, bytes] | None:
    """:func:`_parse_frame`, memoized by the frame bytes.

    Returns ``(path_key, mtype, raw_payload)`` -- the interned demux key
    (:func:`frame_path_key`), the message type, and the *validated*
    canonical payload encoding (decoding it cannot fail) -- or ``None``
    when *data* is not a well-formed plain frame (batches, malformed
    input).

    Repeat frames (the other n-1 copies of a broadcast, re-deliveries
    in multi-stack processes) hit the memo and skip the whole walk; the
    returned ``raw_payload`` is then the *same* bytes object every time,
    so a downstream digest cache keyed on it is a cached-hash probe.
    """
    global _fastpath_memo_bytes
    frame = data if type(data) is bytes else bytes(data)
    memo = _fastpath_memo
    hit = memo.get(frame, _MEMO_MISS)
    if hit is not _MEMO_MISS:
        return hit
    try:
        result = _parse_frame(frame)
    except WireFormatError:
        result = None
    cost = _memo_cost(frame, result)
    if cost <= FASTPATH_MEMO_BYTES:
        memo[frame] = result
        _fastpath_memo_bytes += cost
        while len(memo) > _FASTPATH_MEMO_MAX or _fastpath_memo_bytes > FASTPATH_MEMO_BYTES:
            _fastpath_memo_bytes -= _memo_cost(*memo.popitem(last=False))
    return result


def fastpath_memo_clear() -> None:
    """Drop all memoized frame parses (test isolation hook)."""
    global _fastpath_memo_bytes
    _fastpath_memo.clear()
    _fastpath_memo_bytes = 0


def encode_frame_from_prefix_raw(prefix: bytes, mtype: int, raw) -> bytes:
    """Splice a frame from a prefix and an *already encoded* payload.

    By canonicality the result is byte-identical to
    ``encode_frame_from_prefix(prefix, mtype, decode_value(raw))`` --
    this is how a receiver forwards a payload (reliable broadcast's
    PAYLOAD push) without ever decoding it.  *raw* must be a
    validated encoded-value region (e.g. ``Mbuf.raw_payload`` from the
    receive path); it is spliced verbatim.
    """
    if not 0 <= mtype <= 0xFF:
        raise ValueError(f"mtype {mtype} out of range")
    out = bytearray(prefix)
    out += _SMALL_INT_ENC[mtype]
    out += raw
    return bytes(out)


# -- batch containers ---------------------------------------------------------
#
# Layout (big-endian)::
#
#     u8   _T_BATCH
#     u32  frame count
#     (u32 frame length | frame bytes) * count
#
# A batch is itself a valid channel unit, so it may (rarely) appear
# inside another batch -- e.g. the TCP sender merging queue entries that
# the stack already coalesced.  Receivers bound that nesting with
# MAX_BATCH_DEPTH.


def is_batch(data) -> bool:
    """True if *data* is a batch container rather than a plain frame."""
    return bool(len(data)) and data[0] == _T_BATCH


def encode_batch(frames: Sequence[bytes]) -> bytes:
    """Coalesce several channel units into one batch container."""
    if not frames:
        raise ValueError("cannot encode an empty batch")
    if len(frames) > MAX_BATCH_FRAMES:
        raise ValueError(f"batch of {len(frames)} exceeds cap {MAX_BATCH_FRAMES}")
    out = bytearray(b"\x42")
    out += _pack_u32(len(frames))
    for frame in frames:
        size = len(frame)
        if not size:
            raise ValueError("cannot batch an empty frame")
        if size > _MAX_LEN:
            raise ValueError(f"frame of {size} bytes exceeds cap")
        out += _pack_u32(size)
        out += frame
    return bytes(out)


def splice_batch(units: Sequence[bytes]) -> bytes:
    """Coalesce channel units into one *flat* batch container.

    A unit that is itself a batch container contributes its members,
    spliced in rather than nested; any other unit is one member.  The
    result is byte-identical to :func:`encode_batch` over the flattened
    member list.  Containers are trusted to be well formed -- the local
    stack built them -- so their member region is copied without a walk.
    """
    count = 0
    out = bytearray(b"\x42\x00\x00\x00\x00")
    for unit in units:
        if unit[0] == _T_BATCH:
            count += _unpack_u32_from(unit, 1)[0]
            out += memoryview(unit)[5:]
        else:
            count += 1
            out += _pack_u32(len(unit))
            out += unit
    if count > MAX_BATCH_FRAMES:
        raise ValueError(f"batch of {count} exceeds cap {MAX_BATCH_FRAMES}")
    _U32.pack_into(out, 1, count)
    return bytes(out)


def decode_batch_views(data) -> list[memoryview]:
    """Split a batch container into zero-copy :class:`memoryview` members.

    The views alias *data*: no member is re-materialized, so receivers
    decode nested frames straight out of the container buffer.  Each
    view stays valid only while *data* does.

    Raises:
        WireFormatError: not a batch, malformed lengths, an empty or
            over-cap member, a count over :data:`MAX_BATCH_FRAMES`, or
            trailing bytes.
    """
    if not is_batch(data):
        raise WireFormatError("not a batch container")
    view = data if type(data) is memoryview else memoryview(data)
    size = len(view)
    if size < 5:
        raise WireFormatError("truncated batch count")
    (count,) = _unpack_u32_from(view, 1)
    if count == 0:
        raise WireFormatError("empty batch")
    if count > MAX_BATCH_FRAMES:
        raise WireFormatError(f"batch count {count} exceeds cap {MAX_BATCH_FRAMES}")
    offset = 5
    frames: list[memoryview] = []
    append = frames.append
    for _ in range(count):
        if offset + 4 > size:
            raise WireFormatError("truncated length field")
        (length,) = _unpack_u32_from(view, offset)
        if length > _MAX_LEN:
            raise WireFormatError(f"field length {length} exceeds cap")
        if length == 0:
            raise WireFormatError("empty frame in batch")
        offset += 4
        end = offset + length
        if end > size:
            raise WireFormatError("truncated frame in batch")
        append(view[offset:end])
        offset = end
    if offset != size:
        raise WireFormatError("trailing bytes after batch")
    return frames


# -- priority classification ---------------------------------------------------
#
# When an outbound queue must shed (GroupConfig.send_queue_max_frames),
# not all frames are equal: losing an agreement-layer vote can stall the
# whole group for a round, while a shed payload retransmission or bulk
# state-transfer chunk only costs the sender a retry.  Classification
# reads just enough of the frame header to find the path -- the payload
# is never decoded.

#: Bulk transfers (checkpoint / state transfer) and anything malformed.
PRIORITY_BULK = 0
#: Application payload dissemination (AB_MSG broadcasts) -- the default.
PRIORITY_PAYLOAD = 1
#: Agreement-layer frames: consensus votes and the broadcasts under them.
PRIORITY_AGREEMENT = 2

#: Path components that mark an agreement subtree: atomic broadcast's
#: per-round vector consensus ("vect") and the consensus protocols
#: themselves (multi-valued, binary, vector).
_AGREEMENT_COMPONENTS = frozenset({"vect", "mvc", "bc", "vc"})

#: Path heads that mark bulk transfers: the checkpoint / state-transfer
#: protocol mounts at ("rec",) by convention ("ckpt" kept for custom
#: mount points named after the protocol kind).
_BULK_HEADS = frozenset({"rec", "ckpt"})


def frame_priority(data, _depth: int = 0) -> int:
    """Shedding priority of one channel unit (higher survives longer).

    Batches take the highest priority of their members, so coalescing
    never demotes an agreement vote riding with payload frames.
    Members are walked as zero-copy views with an early exit once the
    maximum class is reached.
    """
    if is_batch(data):
        if _depth >= MAX_BATCH_DEPTH:
            return PRIORITY_BULK
        try:
            members = decode_batch_views(data)
        except WireFormatError:
            return PRIORITY_BULK
        best = PRIORITY_BULK
        for member in members:
            priority = frame_priority(member, _depth + 1)
            if priority == PRIORITY_AGREEMENT:
                return PRIORITY_AGREEMENT
            if priority > best:
                best = priority
        return best
    path_key = frame_path_key(data)
    if path_key is None:
        return PRIORITY_BULK
    try:
        path = frame_path(path_key)
    except WireFormatError:
        return PRIORITY_BULK
    if path and path[0] in _BULK_HEADS:
        return PRIORITY_BULK
    for component in path:
        if component in _AGREEMENT_COMPONENTS:
            return PRIORITY_AGREEMENT
    return PRIORITY_PAYLOAD

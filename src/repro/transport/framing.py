"""Authenticated frame encoding for the TCP transport.

Wire layout of one frame (big-endian)::

    u32  body length
    u64  sequence number          } authenticated
    u32  source process id        } authenticated
    ...  stack frame bytes        } authenticated
    32B  HMAC-SHA256 trailer

The HMAC key is the pairwise secret ``s_ij``; the sequence number is
strictly monotonic per direction, so replayed or reordered injections
are rejected.  This plays the role IPSec AH played on the paper's
testbed: the *channel* authenticates link and content, letting the
protocols above stay signature-free.

Scope note: sequence tracking is per TCP connection (like an IPSec SA's
anti-replay window per SA).  An attacker replaying *recorded* frames on
a fresh connection passes the channel check; the protocols above
tolerate this by construction -- every broadcast counts one vote per
source, so duplicates are absorbed (defense in depth, exercised by the
fuzz tests).
"""

from __future__ import annotations

import hmac
import struct
from hashlib import sha256

MAC_LEN = 32
_HEADER = struct.Struct(">QI")
_LEN = struct.Struct(">I")
MAX_FRAME = 64 * 1024 * 1024
#: Body bytes around a frame's payload: the sequence/source header and
#: the HMAC trailer.
BODY_OVERHEAD = _HEADER.size + MAC_LEN


class FramingError(Exception):
    """A frame failed authentication or was malformed."""


def peek_src(body_and_tag: bytes) -> int:
    """Extract the *claimed* source pid from a frame, without verifying.

    Used once per inbound connection to pick the pairwise key; the very
    same frame is then verified under that key, so a liar gains nothing.
    """
    if len(body_and_tag) < _HEADER.size + MAC_LEN:
        raise FramingError("frame too short")
    _, src = _HEADER.unpack_from(body_and_tag)
    return src


class FrameCodec:
    """Encoder/decoder for one *direction* of a peer link."""

    def __init__(self, key: bytes, src: int):
        self._key = key
        self._src = src
        self._send_seq = 0
        self._recv_seq = -1
        # The HMAC key schedule (two SHA-256 blocks of key padding) is
        # constant per link; fork this pre-keyed state per frame instead
        # of re-deriving it.  Digest bytes are identical to a fresh
        # ``hmac.new(key, body, sha256)``.
        self._mac_proto = hmac.new(key, digestmod=sha256)

    def encode(self, payload: bytes) -> bytes:
        """Wrap *payload* with sequence number and HMAC trailer."""
        header = _HEADER.pack(self._send_seq, self._src)
        self._send_seq += 1
        state = self._mac_proto.copy()
        state.update(header)
        state.update(payload)
        out = bytearray(_LEN.pack(_HEADER.size + len(payload) + MAC_LEN))
        out += header
        out += payload
        out += state.digest()
        return bytes(out)

    def decode(self, body_and_tag, in_place: bool = False) -> tuple[int, bytes | memoryview]:
        """Verify one received frame body; returns ``(src, payload)``.

        Accepts any bytes-like object; the body is authenticated in
        place (no copy).  The payload is materialized as owned ``bytes``,
        or with *in_place* returned as a read-only view of the body --
        for a caller that hands over the buffer the body lives in and
        never writes it again.

        Raises:
            FramingError: bad MAC, replayed/reordered sequence number,
                or truncated frame.
        """
        size = len(body_and_tag)
        if size < _HEADER.size + MAC_LEN:
            raise FramingError("frame too short")
        view = memoryview(body_and_tag)
        body_end = size - MAC_LEN
        state = self._mac_proto.copy()
        state.update(view[:body_end])
        if not hmac.compare_digest(view[body_end:], state.digest()):
            raise FramingError("bad frame MAC")
        seq, src = _HEADER.unpack_from(view)
        if seq <= self._recv_seq:
            raise FramingError(f"replayed frame (seq {seq} <= {self._recv_seq})")
        if src != self._src:
            raise FramingError(f"frame claims src {src}, link authenticated {self._src}")
        self._recv_seq = seq
        payload = view[_HEADER.size : body_end]
        return src, payload.toreadonly() if in_place else bytes(payload)

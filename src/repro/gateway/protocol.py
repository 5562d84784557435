"""The client wire protocol: length-prefixed frames over one TCP stream.

Layout of one frame (big-endian), mirroring the replica channel framing
in :mod:`repro.transport.framing` minus the HMAC trailer -- clients are
*outside* the replica trust domain, and the services they reach are
Byzantine-tolerant by construction, so the gateway treats every client
byte as untrusted input rather than authenticating it::

    u32  body length
    ...  canonically encoded value (repro.core.wire codec)

Requests are ``[request_id, op, args...]``; responses are
``[request_id, status, detail]``.  Request ids are non-negative ints
chosen by the client that only need to be unique per connection -- the
gateway echoes them back, which is what lets a session keep many
operations in flight (pipelining) over one stream.

Statuses:

- ``ok`` -- the operation completed; *detail* is the op result
  (``get`` -> value bytes or ``None``, writes -> the apply result).
- ``retry-after`` -- admission refused by the replica's backpressure
  bound (:class:`repro.core.errors.BackpressureError`); *detail* is
  ``[pending, cap, retry_after_ms]``.  The operation was **not**
  replicated; the client should back off and resubmit.
- ``error`` -- the request was malformed or named an unknown op;
  *detail* is a message string.

The codec is shared by the server, the load generator and the tests, so
there is exactly one definition of the wire format.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.core.errors import WireFormatError
from repro.core.wire import decode_value, encode_value

_LEN = struct.Struct(">I")

#: Bound on one client frame; far above any legitimate request (keys and
#: values are application-sized), far below anything that could balloon
#: gateway memory per connection.
MAX_CLIENT_FRAME = 4 * 1024 * 1024

#: Response statuses.
STATUS_OK = "ok"
STATUS_RETRY = "retry-after"
STATUS_ERROR = "error"

#: Request id echoed on ``error`` responses whose originating request id
#: could not be recovered (undecodable or shapeless body).  Reserved:
#: clients must choose non-negative ids, so a ``-1`` response can never
#: be mistaken for the settlement of a real in-flight operation.
UNCORRELATED_ID = -1

#: Ops the gateway accepts, with their argument arity.
OPS = {
    "put": 2,  # key, value
    "get": 1,  # key
    "delete": 1,  # key
    "cas": 3,  # key, expected, value
    "ping": 0,
}

#: Ops answered from local replica state when local reads are enabled
#: (staleness-tolerant); everything else orders through atomic broadcast.
READ_OPS = frozenset({"get", "ping"})


class ClientProtocolError(Exception):
    """A client frame was malformed (oversized, bad codec, bad shape).

    ``request_id`` carries the originating request's id when the decoder
    got far enough to recover it (wrong arity, unknown op, bad shape
    with a non-negative int leader), letting the server's ``error``
    response correlate; it is ``None`` -- answered as
    :data:`UNCORRELATED_ID` -- when nothing trustworthy could be read,
    including a negative or ``bool`` id.
    """

    request_id: int | None = None


def encode_client_frame(value: Any) -> bytes:
    """One length-prefixed frame carrying *value*."""
    body = encode_value(value)
    if len(body) > MAX_CLIENT_FRAME:
        raise ClientProtocolError(f"frame too large ({len(body)} bytes)")
    return _LEN.pack(len(body)) + body


def encode_request(request_id: int, op: str, args: list[Any]) -> bytes:
    return encode_client_frame([request_id, op, list(args)])


def encode_response(request_id: int, status: str, detail: Any) -> bytes:
    return encode_client_frame([request_id, status, detail])


def decode_request(body: bytes) -> tuple[int, str, list[Any]]:
    """Decode and shape-check one request body.

    Raises:
        ClientProtocolError: undecodable body, wrong shape, a request
            id that is not a non-negative int, unknown op, or wrong
            argument arity -- the gateway answers ``error`` (with the
            request id when one could be recovered) rather than dropping
            the connection.
    """
    try:
        decoded = decode_value(body)
    except WireFormatError as exc:
        raise ClientProtocolError(f"undecodable request: {exc}") from None
    # Recover the request id whenever the leading element parses as one,
    # even if the rest of the shape is wrong -- an error the client can
    # correlate beats an UNCORRELATED_ID it can only log.  A negative id
    # (UNCORRELATED_ID among them) or a bool is refused uncorrelated:
    # echoed, it would pass for the sentinel or for another request.
    recovered: int | None = None
    if isinstance(decoded, list) and decoded:
        leader = decoded[0]
        if type(leader) is int and leader >= 0:
            recovered = leader
    if (
        recovered is None
        or len(decoded) != 3
        or not isinstance(decoded[1], str)
        or not isinstance(decoded[2], list)
    ):
        exc = ClientProtocolError("request must be [request_id, op, args]")
        exc.request_id = recovered
        raise exc
    request_id, op, args = decoded
    arity = OPS.get(op)
    if arity is None:
        exc = ClientProtocolError(f"unknown op {op!r}")
        exc.request_id = request_id
        raise exc
    if len(args) != arity:
        exc = ClientProtocolError(f"op {op!r} takes {arity} args, got {len(args)}")
        exc.request_id = request_id
        raise exc
    return request_id, op, args


def decode_response(body: bytes) -> tuple[int, str, Any]:
    try:
        decoded = decode_value(body)
    except WireFormatError as exc:
        raise ClientProtocolError(f"undecodable response: {exc}") from None
    if (
        not isinstance(decoded, list)
        or len(decoded) != 3
        or not isinstance(decoded[0], int)
        or not isinstance(decoded[1], str)
    ):
        raise ClientProtocolError("response must be [request_id, status, detail]")
    return decoded[0], decoded[1], decoded[2]


class FrameReader:
    """Incremental frame splitter for one direction of a stream.

    Feed it raw socket bytes; it yields complete frame bodies.  Keeping
    this sans-IO (like the protocol stack itself) is what lets the
    server process *every* complete frame in one read wakeup -- the
    pipelining window the gateway coalesces into a single atomic-
    broadcast batch.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Append *data*; return every now-complete frame body."""
        self._buffer += data
        frames: list[bytes] = []
        while True:
            if len(self._buffer) < _LEN.size:
                return frames
            (length,) = _LEN.unpack_from(self._buffer)
            if length > MAX_CLIENT_FRAME:
                raise ClientProtocolError(f"implausible frame length {length}")
            end = _LEN.size + length
            if len(self._buffer) < end:
                return frames
            frames.append(bytes(self._buffer[_LEN.size : end]))
            del self._buffer[:end]


async def read_frame(reader) -> bytes:
    """Read one frame body from an :class:`asyncio.StreamReader`."""
    header = await reader.readexactly(_LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_CLIENT_FRAME:
        raise ClientProtocolError(f"implausible frame length {length}")
    return await reader.readexactly(length)

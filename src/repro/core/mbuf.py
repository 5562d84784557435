"""Message buffers (*mbufs*) -- the unit of exchange between layers.

Modeled on the data structure of the same name in the original C
implementation (itself inspired by the Net/3 kernel): one mbuf holds
exactly one message plus the metadata the stack needs to route and
account for it.  Layers communicate by passing mbuf references.

Every received mbuf is *lazy*: the stack's one frame parse
(:func:`repro.core.wire.frame_fastpath`) validates the encoded-payload
region and the stack builds the mbuf with :meth:`Mbuf.lazy`, deferring
object construction until somebody actually reads ``.payload``.
Reliable broadcast's ECHO/READY amplification relays the raw region
verbatim, so most received mbufs are never decoded at all.  Validation
up front makes the deferred decode infallible -- reading ``.payload``
cannot raise.  Locally originated mbufs are built eagerly with
:class:`Mbuf` and carry no raw payload.
"""

from __future__ import annotations

from typing import Any

from repro.core.wire import Path, decode_value

_UNDECODED = object()


class Mbuf:
    """One in-flight message.

    Attributes:
        src: process id of the sender (as reported by the reliable
            channel, which authenticates the link -- a corrupt process
            cannot spoof another's id).
        path: protocol-instance path the message is addressed to.
        mtype: protocol-specific message kind.
        payload: decoded structured payload.  For mbufs built with
            :meth:`lazy` the first read decodes ``raw_payload`` (the
            region was validated at receive time, so this cannot fail).
        wire_size: size in bytes of the encoded frame, excluding
            transport headers; used by the network model and statistics.
        recv_time: local clock value when the frame was received, or
            ``None`` for locally originated mbufs.
        raw_payload: the encoded payload of the received frame as owned
            ``bytes`` (canonically equal to ``encode_value(payload)``),
            letting receivers digest, MAC, or relay the payload without
            re-encoding it.  Never a view of a channel buffer, so an
            mbuf parked out-of-context keeps it.  ``None`` for locally
            originated mbufs.
    """

    __slots__ = (
        "src",
        "path",
        "mtype",
        "_payload",
        "wire_size",
        "recv_time",
        "raw_payload",
    )

    def __init__(
        self,
        src: int,
        path: Path,
        mtype: int,
        payload: Any,
        wire_size: int = 0,
        recv_time: float | None = None,
        raw_payload: bytes | None = None,
    ) -> None:
        self.src = src
        self.path = path
        self.mtype = mtype
        self._payload = payload
        self.wire_size = wire_size
        self.recv_time = recv_time
        self.raw_payload = raw_payload

    @classmethod
    def lazy(
        cls,
        src: int,
        path: Path,
        mtype: int,
        raw_payload: bytes,
        wire_size: int = 0,
        recv_time: float | None = None,
    ) -> "Mbuf":
        """An mbuf whose payload decodes on first access.

        *raw_payload* must be a validated encoded value (the
        :func:`~repro.core.wire.frame_fastpath` contract).
        """
        mbuf = cls.__new__(cls)
        mbuf.src = src
        mbuf.path = path
        mbuf.mtype = mtype
        mbuf._payload = _UNDECODED
        mbuf.wire_size = wire_size
        mbuf.recv_time = recv_time
        mbuf.raw_payload = raw_payload
        return mbuf

    @property
    def payload(self) -> Any:
        payload = self._payload
        if payload is _UNDECODED:
            payload = self._payload = decode_value(self.raw_payload)
        return payload

    @payload.setter
    def payload(self, value: Any) -> None:
        self._payload = value

    def describe(self) -> str:
        """Short human-readable summary, for logs and assertion messages."""
        path = "/".join(str(c) for c in self.path)
        return f"mbuf(src=p{self.src}, path={path}, mtype={self.mtype}, {self.wire_size}B)"

"""Bracha's reliable broadcast (Section 2.2 of the paper).

Guarantees, with up to ``f = floor((n-1)/3)`` Byzantine processes:

1. all correct processes deliver the same message (or none);
2. if the sender is correct, the message is delivered.

Protocol, for sender *s* and message *m*, with ``d = H(m)``:

- *s* sends ``(INIT, m)`` to all;
- on the first ``INIT``, a process holds *m* under its locally computed
  digest *d* and sends ``(ECHO, d)`` to all;
- on ``floor((n+f)/2)+1`` ECHOs for *d*, *or* ``f+1`` READYs for *d*, a
  process sends ``(READY, d)`` to all (once);
- on ``2f+1`` READYs for *d*, it delivers *m* as soon as it holds a
  payload -- from the INIT or from a PAYLOAD -- whose locally computed
  digest is *d*;
- on delivering, it sends ``(PAYLOAD, m)`` once to every peer whose
  ECHO(d) it has not counted: the only peers that may lack *m*.

Raw payloads are held only until delivery.  Once the push has gone out
the instance drops every payload encoding it held and keeps none it
receives later (a late INIT is still digested and echoed), so a
delivered instance holds *m* once, as the decoded value it delivered.
A large payload is held as a read-only view of the unit it arrived in
(:func:`~repro.core.wire.frame_fastpath`), so that unit's buffer is
freed with it.

ECHO and READY name the payload by its digest, so the payload crosses
the wire once per receiver, in the INIT, plus a push to a peer that
missed it.  Totality survives: a correct process delivers *d* only
after an echo quorum for *d* exists, of which at least
``floor((n+f)/2)+1-f >= f+1`` echoers are correct and hold *m*; each of
them delivers, and a correct process without the INIT never echoes, so
each of them pushes *m* to it.  An ECHO or READY whose payload region is
not exactly the canonical encoding of a ``HASH_LEN`` byte string is a
protocol violation.

One :class:`ReliableBroadcast` control block handles one broadcast by
one sender.  Equivocation (a corrupt sender or echoer sending different
messages to different processes) is handled by counting ECHO/READY
support per digest and per source process.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import ProtocolViolationError
from repro.core.mbuf import Mbuf
from repro.core.stack import ControlBlock, Stack
from repro.core.wire import Path, decode_value, encode_payload, encode_value
from repro.crypto.hashing import HASH_LEN, hash_bytes

MSG_INIT = 0
MSG_ECHO = 1
MSG_READY = 2
MSG_PAYLOAD = 3

#: The canonical encoding of an ECHO or READY payload is this header
#: followed by the ``HASH_LEN`` digest bytes; nothing else is a vote.
READY_HEAD = encode_value(bytes(HASH_LEN))[:-HASH_LEN]
_VOTE_LEN = len(READY_HEAD) + HASH_LEN


def _raw_of(mbuf: Mbuf) -> bytes | memoryview:
    """The canonical payload encoding of *mbuf*: straight off the wire
    for received frames, encoded for locally built ones."""
    raw = mbuf.raw_payload
    return raw if raw is not None else encode_value(mbuf.payload)


def _vote_digest(mbuf: Mbuf) -> bytes:
    """The digest an ECHO or READY votes for, read from its raw region
    without a decode; anything but the canonical digest encoding is a
    protocol violation."""
    raw = _raw_of(mbuf)
    if len(raw) != _VOTE_LEN or not raw.startswith(READY_HEAD):
        raise ProtocolViolationError(f"rb vote from p{mbuf.src} does not carry a digest")
    return raw[-HASH_LEN:]


class ReliableBroadcast(ControlBlock):
    """One Bracha broadcast instance (one sender, one message)."""

    protocol = "rb"

    def __init__(
        self,
        stack: Stack,
        path: Path,
        parent: ControlBlock | None = None,
        purpose: str | None = None,
        *,
        sender: int,
    ):
        super().__init__(stack, path, parent, purpose)
        if sender not in self.config.process_ids:
            raise ValueError(f"sender {sender} not in group")
        self.sender = sender
        self.delivered = False
        self.delivered_value: Any = None
        self._init_seen = False
        self._ready_sent = False
        # digest -> canonical payload encoding (from the INIT or a
        # PAYLOAD), digest computed here; emptied at delivery.  Delivery
        # decodes the one it needs; votes never decode.
        self._raws: dict[bytes, bytes | memoryview] = {}
        # digest -> set of source pids, one vote per source per phase.
        self._echoes: dict[bytes, set[int]] = {}
        self._readies: dict[bytes, set[int]] = {}
        # Sources already counted in each phase (equivocation guard),
        # and sources whose one PAYLOAD was taken.
        self._echo_sources: set[int] = set()
        self._ready_sources: set[int] = set()
        self._payload_sources: set[int] = set()

    # -- sending ----------------------------------------------------------------

    def broadcast(self, payload: Any) -> None:
        """Start the broadcast.  Only the designated sender may call this."""
        self.broadcast_raw(encode_payload(payload))

    def broadcast_raw(self, raw: bytes) -> None:
        """:meth:`broadcast` for a payload already encoded as a frame
        payload region (:func:`~repro.core.wire.encode_payload`, or
        :func:`~repro.core.wire.splice_list_payload`)."""
        if self.me != self.sender:
            raise ProtocolViolationError(
                f"p{self.me} cannot broadcast on instance owned by p{self.sender}"
            )
        self.stack.stats.record_broadcast(self.protocol, self.purpose, self.path, len(raw))
        self.send_all_raw(MSG_INIT, raw)

    def _send_echo(self, digest: bytes, raw: bytes) -> None:
        """Send ECHO(*digest*) to all; *raw* is the INIT payload it
        names (an adversary hook)."""
        self.send_all_raw(MSG_ECHO, READY_HEAD + digest)

    def _send_ready(self, digest: bytes) -> None:
        """Send READY(*digest*) to all (an adversary hook)."""
        self.send_all_raw(MSG_READY, READY_HEAD + digest)

    def _push_payload(self, digest: bytes, raw: bytes) -> None:
        """Send the delivered payload once to every peer, never self,
        whose ECHO(*digest*) was not counted here: the only peers that
        may lack it (an adversary hook)."""
        echoed = self._echoes.get(digest, ())
        for dest in self.config.process_ids:
            if dest != self.me and dest not in echoed:
                self.send_raw(dest, MSG_PAYLOAD, raw)

    # -- introspection -----------------------------------------------------------

    def inspect(self) -> dict[str, Any]:
        state = super().inspect()
        state["sender"] = self.sender
        state["delivered"] = self.delivered
        if self.delivered:
            # A digest, not the value: cheap to compare across processes
            # and hashable regardless of the payload's shape.
            state["value_digest"] = hash_bytes(encode_value(self.delivered_value))
        return state

    # -- receiving ----------------------------------------------------------------

    def input(self, mbuf: Mbuf) -> None:
        if self.destroyed:
            return
        # Tuple-indexed dispatch: ECHO/READY are the densest vote path
        # in the stack (every broadcast crosses it n^2 times).
        mtype = mbuf.mtype
        if 0 <= mtype <= 3:
            _RB_HANDLERS[mtype](self, mbuf)
        else:
            raise ProtocolViolationError(f"unknown rb mtype {mbuf.mtype}")

    def _on_init(self, mbuf: Mbuf) -> None:
        if mbuf.src != self.sender:
            raise ProtocolViolationError(
                f"INIT from p{mbuf.src} on broadcast owned by p{self.sender}"
            )
        if self._init_seen:
            return  # duplicate / equivocating INIT: only the first counts
        self._init_seen = True
        raw = _raw_of(mbuf)
        digest = self._hold(raw)
        self._send_echo(digest, raw)
        # The INIT is a payload source too: a READY quorum may already
        # be waiting for it.
        self._check_progress(digest)

    def _on_echo(self, mbuf: Mbuf) -> None:
        digest = _vote_digest(mbuf)
        if mbuf.src in self._echo_sources:
            return
        self._echo_sources.add(mbuf.src)
        self._echoes.setdefault(digest, set()).add(mbuf.src)
        self._check_progress(digest)

    def _on_ready(self, mbuf: Mbuf) -> None:
        digest = _vote_digest(mbuf)
        if mbuf.src in self._ready_sources:
            return
        self._ready_sources.add(mbuf.src)
        self._readies.setdefault(digest, set()).add(mbuf.src)
        self._check_progress(digest)

    def _on_payload(self, mbuf: Mbuf) -> None:
        # A payload source only: never a vote, never an ECHO.
        if self.delivered or mbuf.src in self._payload_sources:
            return
        self._payload_sources.add(mbuf.src)
        self._check_progress(self._hold(_raw_of(mbuf)))

    def _hold(self, raw: bytes | memoryview) -> bytes:
        """Digest *raw* and, until delivery, keep it as the payload
        candidate for that digest; returns the digest."""
        digest = hash_bytes(raw)
        if not self.delivered:
            self._raws.setdefault(digest, raw)
        return digest

    def _check_progress(self, digest: bytes) -> None:
        cfg = self.config
        echoes = len(self._echoes.get(digest, ()))
        readies = len(self._readies.get(digest, ()))
        if not self._ready_sent and (
            echoes >= cfg.echo_quorum or readies >= cfg.ready_amplify
        ):
            self._ready_sent = True
            self._send_ready(digest)
        if self.delivered or readies < cfg.ready_quorum:
            return
        raw = self._raws.get(digest)
        if raw is None:
            return  # the INIT or a PAYLOAD carrying it will call again
        self.delivered = True
        self._push_payload(digest, raw)
        self._raws.clear()
        # The region was validated by the receive path (or encoded
        # here), so the decode cannot fail.
        self.delivered_value = decode_value(raw)
        self.deliver(self.delivered_value)


#: INIT/ECHO/READY/PAYLOAD handlers indexed by mtype (see
#: ReliableBroadcast.input).
_RB_HANDLERS = (
    ReliableBroadcast._on_init,
    ReliableBroadcast._on_echo,
    ReliableBroadcast._on_ready,
    ReliableBroadcast._on_payload,
)

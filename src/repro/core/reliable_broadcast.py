"""Bracha's reliable broadcast (Section 2.2 of the paper).

Guarantees, with up to ``f = floor((n-1)/3)`` Byzantine processes:

1. all correct processes deliver the same message (or none);
2. if the sender is correct, the message is delivered.

Protocol, for sender *s* and message *m*:

- *s* sends ``(INIT, m)`` to all;
- on ``INIT``, a process sends ``(ECHO, m)`` to all;
- on ``floor((n+f)/2)+1`` ECHOs *or* ``f+1`` READYs for the same *m*, a
  process sends ``(READY, m)`` to all (once);
- on ``2f+1`` READYs for the same *m*, it delivers *m*.

One :class:`ReliableBroadcast` control block handles one broadcast by
one sender.  Equivocation (a corrupt sender or echoer sending different
messages to different processes) is handled by counting ECHO/READY
support per message digest and per source process.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import ProtocolViolationError
from repro.core.mbuf import Mbuf
from repro.core.stack import ControlBlock, Stack
from repro.core.trace import KIND_BROADCAST
from repro.core.wire import Path, decode_value, encode_value
from repro.crypto.hashing import hash_bytes
from repro.obs.metrics import COUNT_BUCKETS

MSG_INIT = 0
MSG_ECHO = 1
MSG_READY = 2

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
        self._echo_sent = False
        self._ready_sent = False
        # digest -> decoded payload (kept so delivery can hand the value
        # up); populated lazily -- vote handling works on digests and
        # raw encodings alone, so a payload is decoded at most once per
        # digest, at delivery or when relayed without its encoding.
        self._payloads: dict[bytes, Any] = {}
        # digest -> canonical payload encoding, straight off the wire.
        # ECHO/READY amplification splices these back into outgoing
        # frames (send_all_raw) without ever building the Python value.
        self._raws: dict[bytes, bytes] = {}
        # raw payload -> digest: each counted vote would otherwise hash
        # its payload again (up to 2n times per instance).  The receive
        # path hands repeat frames the same raw bytes object, so a hit
        # is a cached-hash probe; one entry per distinct payload, freed
        # with the instance.
        self._digests: dict[bytes, bytes] = {}
        # digest -> set of source pids, one vote per source per phase.
        self._echoes: dict[bytes, set[int]] = {}
        self._readies: dict[bytes, set[int]] = {}
        # Sources already counted in each phase (equivocation guard).
        self._echo_sources: set[int] = set()
        self._ready_sources: set[int] = set()

    # -- sending ----------------------------------------------------------------

    def broadcast(self, payload: Any) -> None:
        """Start the broadcast.  Only the designated sender may call this."""
        if self.me != self.sender:
            raise ProtocolViolationError(
                f"p{self.me} cannot broadcast on instance owned by p{self.sender}"
            )
        self.stack.stats.record_broadcast(self.protocol, self.purpose)
        if self.stack.tracer.enabled:
            self.stack.tracer.emit(
                self.me, KIND_BROADCAST, self.path, protocol=self.protocol
            )
        if self.stack.metrics.enabled:
            self.stack.metrics.histogram(
                "ritas_broadcast_payload_bytes",
                buckets=COUNT_BUCKETS,
                protocol=self.protocol,
                purpose=self.purpose,
            ).observe(len(encode_value(payload)))
        self.send_all(MSG_INIT, payload)

    # -- introspection -----------------------------------------------------------

    def inspect(self) -> dict[str, Any]:
        state = super().inspect()
        state["sender"] = self.sender
        state["delivered"] = self.delivered
        if self.delivered:
            # A digest, not the value: cheap to compare across processes
            # and hashable regardless of the payload's shape.
            state["value_digest"] = self._digest_of(self.delivered_value)
        return state

    # -- receiving ----------------------------------------------------------------

    def input(self, mbuf: Mbuf) -> None:
        if self.destroyed:
            return
        # Tuple-indexed dispatch: INIT/ECHO/READY are the densest vote
        # path in the stack (every broadcast crosses it n^2 times).
        mtype = mbuf.mtype
        if 0 <= mtype <= 2:
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
        if not self._echo_sent:
            self._echo_sent = True
            raw = mbuf.raw_payload
            if raw is not None:
                # Relay the INIT's canonical encoding verbatim -- no
                # decode of the inbound payload, no re-encode outbound,
                # identical bytes on the wire.
                self.send_all_raw(MSG_ECHO, raw)
            else:
                self.send_all(MSG_ECHO, mbuf.payload)

    def _on_echo(self, mbuf: Mbuf) -> None:
        if mbuf.src in self._echo_sources:
            return
        self._echo_sources.add(mbuf.src)
        digest = self._digest_of_mbuf(mbuf)
        self._echoes.setdefault(digest, set()).add(mbuf.src)
        self._check_progress(digest)

    def _on_ready(self, mbuf: Mbuf) -> None:
        if mbuf.src in self._ready_sources:
            return
        self._ready_sources.add(mbuf.src)
        digest = self._digest_of_mbuf(mbuf)
        self._readies.setdefault(digest, set()).add(mbuf.src)
        self._check_progress(digest)

    def _digest_of_mbuf(self, mbuf: Mbuf) -> bytes:
        # The frame already carries the canonical payload encoding:
        # digest it straight from the wire slice instead of re-encoding
        # the decoded value (identical digest, the codec is canonical).
        # The decoded value is deliberately NOT touched here -- for a
        # lazy mbuf that would force the decode this fast path exists to
        # avoid; _value_of materializes it at most once per digest.
        raw = mbuf.raw_payload
        if raw is not None:
            digest = self._digests.get(raw)
            if digest is None:
                digest = self._digests[raw] = hash_bytes(raw)
                if digest not in self._payloads:
                    self._raws.setdefault(digest, raw)
            return digest
        return self._digest_of(mbuf.payload)

    def _digest_of(self, payload: Any) -> bytes:
        digest = hash_bytes(encode_value(payload))
        self._payloads.setdefault(digest, payload)
        return digest

    def _value_of(self, digest: bytes) -> Any:
        """The decoded payload for *digest*, materialized at most once.

        The raw encoding was validated by the receive path, so the
        decode cannot fail.
        """
        try:
            return self._payloads[digest]
        except KeyError:
            value = decode_value(self._raws[digest])
            self._payloads[digest] = value
            return value

    def _check_progress(self, digest: bytes) -> None:
        cfg = self.config
        echoes = len(self._echoes.get(digest, ()))
        readies = len(self._readies.get(digest, ()))
        if not self._ready_sent and (
            echoes >= cfg.echo_quorum or readies >= cfg.ready_amplify
        ):
            self._ready_sent = True
            raw = self._raws.get(digest)
            if raw is not None:
                self.send_all_raw(MSG_READY, raw)
            else:
                self.send_all(MSG_READY, self._payloads[digest])
        if not self.delivered and readies >= cfg.ready_quorum:
            self.delivered = True
            self.delivered_value = self._value_of(digest)
            self.deliver(self.delivered_value)


#: INIT/ECHO/READY handlers indexed by mtype (see ReliableBroadcast.input).
_RB_HANDLERS = (
    ReliableBroadcast._on_init,
    ReliableBroadcast._on_echo,
    ReliableBroadcast._on_ready,
)

"""Matrix echo broadcast (Section 2.3 of the paper).

A cheaper, weaker cousin of reliable broadcast, derived from Reiter's
echo multicast with digital signatures replaced by *vectors of hashes*
(pairwise-keyed MACs).  If the sender is corrupt, not every correct
process need deliver -- but those that do deliver the same message.

Protocol, for sender *s* and message *m*:

- *s* sends ``(INIT, m)`` to all;
- each receiver ``p_i`` builds the vector ``V_i[j] = H(m, s_ij)`` and
  sends ``(VECT, i, V_i)`` back to *s*;
- *s* gathers ``n - f`` vectors into a matrix (vector ``V_i`` is row
  *i*) and sends each ``p_j`` the message ``(MAT, V'_j)``, where
  ``V'_j`` is *column j* of the matrix;
- ``p_j`` verifies the column entries against its own keys and delivers
  *m* if at least ``f + 1`` hashes check out (so at least one correct
  process vouched for exactly this *m*).

Three communication steps, 2(n-1) + n messages -- versus the O(n²) of
reliable broadcast -- and no expensive cryptography.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import ProtocolViolationError
from repro.core.mbuf import Mbuf
from repro.core.stack import ControlBlock, Stack
from repro.core.trace import KIND_BROADCAST
from repro.core.wire import Path, encode_value
from repro.crypto.hashing import HASH_LEN, hash_bytes
from repro.crypto.mac import mac_vector, verify_mac_batch
from repro.obs.metrics import COUNT_BUCKETS

MSG_INIT = 0
MSG_VECT = 1
MSG_MAT = 2


class EchoBroadcast(ControlBlock):
    """One matrix echo broadcast instance (one sender, one message)."""

    protocol = "eb"

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
        self._init_payload: Any = None
        self._init_encoded: bytes | None = None
        self._init_seen = False
        self._vect_sent = False
        # Sender-side state: row index -> MAC vector.
        self._rows: dict[int, list[bytes]] = {}
        self._mat_sent = False
        # Receiver-side: a MAT that arrived before the INIT (possible only
        # with a corrupt sender, since the channel is FIFO per pair).
        self._pending_mat: list[list[Any]] | None = None
        self._mat_seen = False

    # -- sending -------------------------------------------------------------

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

    # -- introspection ---------------------------------------------------------

    def inspect(self) -> dict[str, Any]:
        state = super().inspect()
        state["sender"] = self.sender
        state["delivered"] = self.delivered
        if self.delivered:
            state["value_digest"] = hash_bytes(encode_value(self.delivered_value))
        return state

    # -- receiving -------------------------------------------------------------

    def input(self, mbuf: Mbuf) -> None:
        if self.destroyed:
            return
        if mbuf.mtype == MSG_INIT:
            self._on_init(mbuf)
        elif mbuf.mtype == MSG_VECT:
            self._on_vect(mbuf)
        elif mbuf.mtype == MSG_MAT:
            self._on_mat(mbuf)
        else:
            raise ProtocolViolationError(f"unknown eb mtype {mbuf.mtype}")

    def _on_init(self, mbuf: Mbuf) -> None:
        if mbuf.src != self.sender:
            raise ProtocolViolationError(
                f"INIT from p{mbuf.src} on broadcast owned by p{self.sender}"
            )
        if self._init_seen:
            return
        self._init_seen = True
        self._init_payload = mbuf.payload
        # The frame already carries the canonical payload encoding; keep
        # it so VECT and MAT verification never re-encode the payload
        # (identical bytes, the codec is canonical).
        self._init_encoded = mbuf.raw_payload
        if not self._vect_sent:
            self._vect_sent = True
            vector = mac_vector(self._encoded_init(), self.stack.keystore)
            self.send(self.sender, MSG_VECT, vector)
        if self._pending_mat is not None:
            pending, self._pending_mat = self._pending_mat, None
            self._verify_column(pending)

    def _on_vect(self, mbuf: Mbuf) -> None:
        if self.me != self.sender:
            return  # only the sender collects vectors
        if self._mat_sent or mbuf.src in self._rows:
            return
        vector = mbuf.payload
        if not self._valid_vector(vector):
            raise ProtocolViolationError(f"malformed VECT from p{mbuf.src}")
        self._rows[mbuf.src] = vector
        if len(self._rows) >= self.config.wait_quorum:
            self._mat_sent = True
            for j in self.config.process_ids:
                column = [[i, row[j]] for i, row in sorted(self._rows.items())]
                self.send(j, MSG_MAT, column)

    def _valid_vector(self, vector: Any) -> bool:
        return (
            isinstance(vector, list)
            and len(vector) == self.config.num_processes
            and all(isinstance(tag, bytes) and len(tag) == HASH_LEN for tag in vector)
        )

    def _on_mat(self, mbuf: Mbuf) -> None:
        if mbuf.src != self.sender or self._mat_seen:
            return
        column = mbuf.payload
        if not self._valid_column(column):
            raise ProtocolViolationError(f"malformed MAT from p{mbuf.src}")
        self._mat_seen = True
        if not self._init_seen:
            # FIFO channels mean a correct sender's INIT always precedes
            # its MAT; stash it in case the INIT is merely reordered by a
            # corrupt sender replaying through another instance.
            self._pending_mat = column
            return
        self._verify_column(column)

    def _valid_column(self, column: Any) -> bool:
        if not isinstance(column, list):
            return False
        seen_rows: set[int] = set()
        for entry in column:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not isinstance(entry[0], int)
                or entry[0] not in self.config.process_ids
                or entry[0] in seen_rows
                or not isinstance(entry[1], bytes)
                or len(entry[1]) != HASH_LEN
            ):
                return False
            seen_rows.add(entry[0])
        return True

    def _encoded_init(self) -> bytes:
        if self._init_encoded is None:
            self._init_encoded = encode_value(self._init_payload)
        return self._init_encoded

    def _verify_column(self, column: list[list[Any]]) -> None:
        if self.delivered:
            return
        key_for = self.stack.keystore.key_for
        checks = [(key_for(row_index), tag) for row_index, tag in column]
        valid = sum(verify_mac_batch(self._encoded_init(), checks))
        if valid >= self.config.mat_quorum:
            self.delivered = True
            self.delivered_value = self._init_payload
            self.deliver(self.delivered_value)
        else:
            # A correct sender's column always carries >= f+1 MACs from
            # correct vector senders over the INIT it actually sent, so
            # falling short of the quorum convicts the sender itself --
            # the column came over its own authenticated link (_on_mat
            # checks mbuf.src == sender), never an innocent relay.
            self.stack.report_misbehavior(self.sender, "mac-failure")

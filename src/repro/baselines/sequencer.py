"""A Rampart-style sequencer atomic broadcast (leader-ordered baseline).

Design, after Reiter's Rampart (Section 5 of the paper):

- a sender disseminates its message with an *echo broadcast*;
- a fixed leader assigns consecutive sequence numbers, echo-broadcasting
  one ordering record per message;
- replicas deliver messages in sequence-number order.

This is intentionally the paper's foil, not a complete system: there is
no leader-failure detection or view change, so a crashed or silent
leader halts delivery forever -- exactly the weakness the paper's
leader-free stack avoids.  ``python -m repro.eval ablation-sequencer``
measures both regimes.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.core.atomic_broadcast import AbDelivery
from repro.core.errors import ProtocolViolationError
from repro.core.mbuf import Mbuf
from repro.core.stack import ControlBlock, ProtocolFactory, Stack
from repro.core.stats import PURPOSE_AGREEMENT, PURPOSE_PAYLOAD
from repro.core.wire import Path

MsgId = tuple[int, int]


class SequencerAtomicBroadcast(ControlBlock):
    """Leader-based total order over echo broadcast."""

    protocol = "seq-ab"

    def __init__(
        self,
        stack: Stack,
        path: Path,
        parent: ControlBlock | None = None,
        purpose: str | None = None,
        *,
        leader: int = 0,
        msg_window: int = 65536,
    ):
        super().__init__(stack, path, parent, purpose)
        self.leader = leader
        self._msg_window = msg_window
        self._open_msg_instances: dict[int, int] = {}
        self._next_rbid = 0
        self._received: dict[MsgId, Any] = {}
        self._next_seq_to_assign = 0  # leader only
        self._assigned: set[MsgId] = set()  # leader only
        self._order: dict[int, MsgId] = {}
        self._next_seq_to_deliver = 0
        self._delivered_count = 0
        self._delivery_queue: deque[int] = deque()

    # -- public API ---------------------------------------------------------------

    def broadcast(self, payload: Any) -> MsgId:
        rbid = self._next_rbid
        self._next_rbid += 1
        eb = self.make_child(
            "eb", ("msg", self.me, rbid), sender=self.me, purpose=PURPOSE_PAYLOAD
        )
        eb.broadcast(payload)  # type: ignore[attr-defined]
        return (self.me, rbid)

    @property
    def delivered_count(self) -> int:
        return self._delivered_count

    # -- demux ---------------------------------------------------------------------

    def accept_orphan(self, mbuf: Mbuf) -> bool:
        suffix = mbuf.path[len(self.path) :]
        if len(suffix) == 3 and suffix[0] == "msg":
            _, sender, rbid = suffix
            if (
                isinstance(sender, int)
                and isinstance(rbid, int)
                and sender in self.config.process_ids
                and rbid >= 0
                and self._open_msg_instances.get(sender, 0) < self._msg_window
            ):
                self._open_msg_instances[sender] = (
                    self._open_msg_instances.get(sender, 0) + 1
                )
                self.make_child(
                    "eb", ("msg", sender, rbid), sender=sender, purpose=PURPOSE_PAYLOAD
                )
                return True
            return False
        if len(suffix) == 2 and suffix[0] == "ord":
            seq = suffix[1]
            if isinstance(seq, int) and 0 <= seq < self._msg_window:
                self.make_child(
                    "eb", ("ord", seq), sender=self.leader, purpose=PURPOSE_AGREEMENT
                )
                return True
        return False

    def input(self, mbuf: Mbuf) -> None:
        raise ProtocolViolationError("sequencer broadcast accepts no direct frames")

    # -- events -----------------------------------------------------------------------

    def child_event(self, child: ControlBlock, event: Any) -> None:
        if self.destroyed:
            return
        kind = child.path[len(self.path)]
        if kind == "msg":
            sender, rbid = child.path[-2:]
            msg_id = (sender, rbid)
            if msg_id in self._received:
                return
            self._received[msg_id] = event
            if self.me == self.leader:
                self._assign_order(msg_id)
            self._drain()
        elif kind == "ord":
            seq = child.path[-1]
            self._on_order(seq, event)

    def _assign_order(self, msg_id: MsgId) -> None:
        if msg_id in self._assigned:
            return
        self._assigned.add(msg_id)
        seq = self._next_seq_to_assign
        self._next_seq_to_assign += 1
        eb = self.make_child(
            "eb", ("ord", seq), sender=self.me, purpose=PURPOSE_AGREEMENT
        )
        eb.broadcast([msg_id[0], msg_id[1]])  # type: ignore[attr-defined]

    def _on_order(self, seq: int, record: Any) -> None:
        if seq in self._order:
            return
        if (
            not isinstance(record, list)
            or len(record) != 2
            or not isinstance(record[0], int)
            or not isinstance(record[1], int)
            or record[0] not in self.config.process_ids
        ):
            return  # malformed ordering record from a corrupt leader
        self._order[seq] = (record[0], record[1])
        self._drain()

    def _drain(self) -> None:
        while True:
            msg_id = self._order.get(self._next_seq_to_deliver)
            if msg_id is None or msg_id not in self._received:
                return
            delivery = AbDelivery(
                sender=msg_id[0],
                rbid=msg_id[1],
                payload=self._received[msg_id],
                sequence=self._next_seq_to_deliver,
            )
            self._next_seq_to_deliver += 1
            self._delivered_count += 1
            self.deliver(delivery)


def with_sequencer(factory: ProtocolFactory) -> ProtocolFactory:
    """Register the baseline under the ``seq-ab`` kind."""
    return factory.override("seq-ab", SequencerAtomicBroadcast)

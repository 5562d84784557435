"""Atomic broadcast (Section 2.7 of the paper).

Reliable broadcast plus *total order*: every correct process delivers
the same messages in the same order.  The implementation follows the
paper's optimized variant of Correia et al.'s protocol: agreement runs
on compact *message identifiers* ``(sender, rbid)`` instead of
cryptographic hashes, and uses multi-valued consensus directly instead
of vector consensus.

Two conceptual tasks:

1. **Broadcast** -- to A-broadcast *m*, a process reliably broadcasts
   ``(AB_MSG, i, rbid, m)``; the pair ``(i, rbid)`` identifies *m*
   system-wide.
2. **Agreement** -- in rounds: each process reliably broadcasts
   ``(AB_VECT, i, r, V_i)`` with the identifiers it has received but not
   yet delivered; after ``n - f`` such vectors it builds ``W_i``, the
   identifiers present in ``f + 1`` or more of them (so every chosen
   identifier was vouched for by a correct process and its payload is
   guaranteed to arrive), and proposes ``W_i`` to multi-valued
   consensus.  A non-⊥ decision is delivered in deterministic
   (sender, rbid) order.

The batching is what makes the protocol cheap at high load: one
agreement orders every message that arrived while the previous
agreement ran, so the relative cost of agreement *dilutes* as bursts
grow (Figure 7 of the paper).  Every id set on the wire -- ``V_i``,
``W_i``, the decision and the delivered frontier -- is spelled as
canonical per-sender ranges (:func:`encode_id_ranges`), so its size
follows senders plus gaps, not the number of messages in the batch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.errors import BackpressureError, ProtocolViolationError
from repro.core.mbuf import Mbuf
from repro.core.stack import ORPHAN_STALE, ControlBlock, Stack
from repro.core.stats import PURPOSE_AGREEMENT, PURPOSE_PAYLOAD
from repro.core.trace import KIND_BACKPRESSURE
from repro.core.wire import Path, encode_value
from repro.crypto.hashing import hash_bytes

#: (sender pid, sender-local broadcast id)
MsgId = tuple[int, int]

#: (sender pid, first rbid, last rbid): a run of consecutive identifiers.
IdRange = tuple[int, int, int]

#: Defensive cap on identifiers one id set may expand to (per sender,
#: watermarks excepted, in a frontier): a corrupt process must not be
#: able to blow up memory with one giant vector.
MAX_VECT_IDS = 65536

#: Decided rounds kept behind the current one: round r's ``vect``/``mvc``
#: subtree is destroyed when round r + 2 decides.  That took n - f
#: round-(r + 2) vectors, each sent after its sender decided r + 1, so
#: f + 1 correct processes are past r (DESIGN section 3).
RETAINED_ROUNDS = 2

#: Per-sender cap on *open* receiver-side AB message instances (created,
#: not yet reclaimed at delivery): the dynamic-demultiplexing window that
#: stops a corrupt process from minting unbounded RB instances.
MSG_WINDOW = 65536


def encode_id_ranges(ids: Iterable[MsgId]) -> list[list[int]]:
    """Wire form of a set of distinct identifiers: ``[[sender, first,
    last], ...]``, sorted by sender then first id, each range maximal
    (disjoint and non-adjacent), so every set has exactly one spelling."""
    out: list[list[int]] = []
    for sender, rbid in sorted(ids):
        if out and out[-1][0] == sender and out[-1][2] == rbid - 1:
            out[-1][2] = rbid
        else:
            out.append([sender, rbid, rbid])
    return out


def parse_id_ranges(
    payload: Any, process_ids: range, *, watermarks: bool = False
) -> list[IdRange] | None:
    """Validate an untrusted id set; ``None`` unless it is exactly what
    :func:`encode_id_ranges` produces for some set of known senders.

    The expanded size is counted from the bounds, before anything is
    expanded, and capped at :data:`MAX_VECT_IDS`.  With *watermarks* (a
    delivered frontier) a range starting at 0 is its sender's
    watermark: it is exempt from the cap, which then applies per sender.
    """
    if type(payload) is not list:
        return None
    out: list[IdRange] = []
    prev_sender, prev_last, count = -1, -1, 0
    for entry in payload:
        if type(entry) is not list or len(entry) != 3:
            return None
        sender, first, last = entry
        if (
            type(sender) is not int
            or type(first) is not int
            or type(last) is not int
            or sender not in process_ids
            or not 0 <= first <= last
        ):
            return None
        if sender == prev_sender:
            if first <= prev_last + 1:
                return None  # overlapping, adjacent-unmerged or unsorted
        elif sender < prev_sender:
            return None
        elif watermarks:
            count = 0
        if not (watermarks and first == 0):
            count += last - first + 1
            if count > MAX_VECT_IDS:
                return None
        prev_sender, prev_last = sender, last
        out.append((sender, first, last))
    return out


def expand_id_ranges(ranges: Iterable[IdRange]) -> list[MsgId]:
    """The identifiers of parsed *ranges*, in (sender, rbid) order."""
    return [(s, r) for s, first, last in ranges for r in range(first, last + 1)]


def supported_id_ranges(id_sets: Iterable[list[IdRange]], threshold: int) -> list[IdRange]:
    """The identifiers in at least *threshold* of the parsed *id_sets*,
    as canonical ranges.  A sweep over range endpoints: the cost follows
    the number of ranges, not the ids they span, so a vector claiming
    ``MAX_VECT_IDS`` ghost ids costs its receivers one range."""
    steps: dict[int, dict[int, int]] = {}
    for ranges in id_sets:
        for sender, first, last in ranges:
            edges = steps.setdefault(sender, {})
            edges[first] = edges.get(first, 0) + 1
            edges[last + 1] = edges.get(last + 1, 0) - 1
    out: list[IdRange] = []
    for sender in sorted(steps):
        depth, start = 0, -1
        for point, step in sorted(steps[sender].items()):
            depth += step
            if depth >= threshold and start < 0:
                start = point
            elif depth < threshold and start >= 0:
                out.append((sender, start, point - 1))
                start = -1
    return out


@dataclass(frozen=True, slots=True)
class AbDelivery:
    """One totally-ordered delivery handed to the application."""

    sender: int
    rbid: int
    payload: Any
    sequence: int

    @property
    def msg_id(self) -> MsgId:
        return (self.sender, self.rbid)


class AtomicBroadcast(ControlBlock):
    """One atomic broadcast group session."""

    protocol = "ab"

    def __init__(
        self,
        stack: Stack,
        path: Path,
        parent: ControlBlock | None = None,
        purpose: str | None = None,
    ):
        super().__init__(stack, path, parent, purpose)
        self._next_rbid = 0
        self._open_msg_instances: dict[int, int] = {}
        # Both forget a message the moment it AB-delivers.
        self._received: dict[MsgId, Any] = {}
        self._scheduled: set[MsgId] = set()
        # Delivered identifiers, kept compact: per-sender contiguous
        # watermark (every rbid <= it is delivered) plus a sparse set of
        # delivered ids above their sender's watermark.  Bounded by the
        # number of in-flight messages, not by history length -- and
        # directly transferable to a recovering replica.
        self._frontier: dict[int, int] = {}
        self._frontier_sparse: set[MsgId] = set()
        self._delivered_count = 0
        self._delivery_queue: deque[MsgId] = deque()
        self._round = 0
        self._round_vects: dict[int, dict[int, list[IdRange]]] = {}
        self._vect_sent: set[int] = set()
        self._mvc_proposed: set[int] = set()
        # (round, id) of messages delivered from an injected payload:
        # their RB instances wait for the round rule.
        self._collectable: deque[tuple[int, MsgId]] = deque()
        self._gc_floor = 0  # lowest round whose instances still exist
        # Cumulative count of identifiers scheduled through the end of
        # each decided round.  Identical at every correct process (it is
        # derived from the agreed decisions), so "the group's delivery
        # position at the end of round r" is well-defined; the recovery
        # layer uses it to splice a transferred log prefix onto a
        # fast-forwarded instance.  _position_base anchors the count to
        # absolute positions (None until a recovering replica learns its
        # anchor from peers).
        self._sched_cum: dict[int, int] = {}
        self._sched_total = 0
        self._position_base: int | None = 0
        self.agreements_started = 0
        self.agreements_empty = 0
        self.fast_forwards = 0
        self.payloads_injected = 0
        # Metrics bookkeeping, populated only while the stack's registry
        # is enabled: submit time of locally broadcast messages (observed
        # as end-to-end ordered-delivery latency) and start time of each
        # round's agreement (proposal to decision).
        self._submit_times: dict[MsgId, float] = {}
        self._agreement_started_at: dict[int, float] = {}
        #: Per-delivery order log ``(sender, rbid, payload digest)``,
        #: kept only when the stack opts in (the invariant checker
        #: compares prefixes across processes); ``None`` otherwise so
        #: ordinary runs pay nothing.  With ``stack.order_log_cap`` set,
        #: only the most recent entries are kept (a bounded deque) --
        #: long soak runs check windowed order agreement at O(cap)
        #: memory instead of O(history).
        self.order_log: "deque[tuple[int, int, bytes]] | list[tuple[int, int, bytes]] | None"
        if stack.record_delivery_order:
            cap = stack.order_log_cap
            self.order_log = deque(maxlen=cap) if cap else []
        else:
            self.order_log = None
        self._ensure_vect_instances(0)

    # -- public API -----------------------------------------------------------------

    def broadcast(self, payload: Any) -> MsgId:
        """Atomically broadcast *payload*; returns its system-wide id.

        The message is delivered through :attr:`on_deliver` (in total
        order, at every correct process) -- not returned here.

        Raises:
            BackpressureError: ``config.ab_pending_cap`` locally
                submitted messages are still undelivered -- admitting
                more would only grow queues everywhere.  Resubmit after
                deliveries drain.
        """
        cap = self.config.ab_pending_cap
        if cap and self.pending_local >= cap:
            self.stack.stats.backpressure_signals += 1
            if self.stack.tracer.enabled:
                self.stack.tracer.emit(
                    self.me, KIND_BACKPRESSURE, self.path, pending=self.pending_local, cap=cap
                )
            raise BackpressureError(
                f"{self.pending_local} local messages undelivered (cap {cap})",
                pending=self.pending_local,
                cap=cap,
            )
        return self._send_msg(payload)

    def _send_msg(self, payload: Any) -> MsgId:
        rbid = self._next_rbid
        self._next_rbid += 1
        if self.stack.metrics.enabled:
            self._submit_times[(self.me, rbid)] = self.stack.clock()
        self._open_msg_instance(self.me, rbid).broadcast(payload)  # type: ignore[attr-defined]
        return (self.me, rbid)

    @property
    def delivered_count(self) -> int:
        return self._delivered_count

    # -- introspection --------------------------------------------------------------

    def inspect(self) -> dict[str, Any]:
        state = super().inspect()
        state["delivered_count"] = self._delivered_count
        state["round"] = self._round
        if self.order_log is not None:
            state["order_log"] = self.order_log
        return state

    @property
    def pending_local(self) -> int:
        """Locally submitted messages not yet delivered back to us --
        the quantity ``config.ab_pending_cap`` bounds."""
        delivered = self._frontier.get(self.me, -1) + 1
        delivered += sum(1 for s, _ in self._frontier_sparse if s == self.me)
        return self._next_rbid - delivered

    @property
    def round(self) -> int:
        return self._round

    @property
    def gc_floor(self) -> int:
        """Lowest agreement round whose protocol instances still exist."""
        return self._gc_floor

    # -- delivered-id frontier ------------------------------------------------------

    def _is_delivered(self, msg_id: MsgId) -> bool:
        sender, rbid = msg_id
        return rbid <= self._frontier.get(sender, -1) or msg_id in self._frontier_sparse

    def _mark_delivered(self, msg_id: MsgId) -> None:
        sender, rbid = msg_id
        watermark = self._frontier.get(sender, -1)
        if rbid <= watermark:
            return
        if rbid != watermark + 1:
            self._frontier_sparse.add(msg_id)
            return
        self._set_watermark(sender, rbid)

    def _set_watermark(self, sender: int, watermark: int) -> None:
        # Keeps the invariant every sparse id of a sender lies above its
        # watermark + 1, which makes delivered_frontier() canonical.
        sparse = self._frontier_sparse
        while (sender, watermark + 1) in sparse:
            watermark += 1
            sparse.discard((sender, watermark))
        self._frontier[sender] = watermark

    def delivered_frontier(self) -> list[list[int]]:
        """Every delivered identifier, in the canonical id-range form
        (:func:`encode_id_ranges`); a sender's range ``[sender, 0, w]``
        is its watermark.  A function of the delivered set alone, so
        replicas at one position produce one frontier (and digest)."""
        watermarks = [[sender, 0, w] for sender, w in self._frontier.items()]
        return sorted(watermarks + encode_id_ranges(self._frontier_sparse))

    def _install_frontier(self, frontier: Iterable[IdRange]) -> None:
        """Mark a parsed frontier delivered; watermarks stay unexpanded."""
        for sender, first, last in frontier:
            if first == 0:
                if last > self._frontier.get(sender, -1):
                    self._frontier_sparse.difference_update(
                        [m for m in self._frontier_sparse if m[0] == sender and m[1] <= last]
                    )
                    self._set_watermark(sender, last)
            else:
                for rbid in range(first, last + 1):
                    self._mark_delivered((sender, rbid))

    # -- positions ------------------------------------------------------------------

    def positions_by_round(self) -> dict[int, int]:
        """Absolute delivery position of the group at the end of each
        (still-tracked) decided round.  Empty while a fast-forwarded
        instance has not yet learned its anchor (:meth:`set_position_base`)."""
        if self._position_base is None:
            return {}
        return {r: self._position_base + c for r, c in self._sched_cum.items()}

    def set_position_base(self, base: int) -> None:
        """Anchor the per-round scheduled counts at absolute position
        *base* (the group position at the end of the round before this
        instance's first round)."""
        self._position_base = base

    # -- recovery hooks -------------------------------------------------------------

    def fast_forward(self, round_number: int, frontier: list | None = None) -> None:
        """Join the agreement at *round_number* instead of round 0.

        Only an instance that has not yet scheduled or delivered
        anything may be fast-forwarded (a restarted replica joins before
        processing history, never mid-stream).  *frontier* -- as produced
        by :meth:`delivered_frontier` on a peer -- marks identifiers the
        group already delivered, so stale frames can never re-deliver
        them here.  Frames for rounds at or above the join round that
        arrived early are re-played from the out-of-context table the
        moment the round's instances exist.
        """
        if self._scheduled or self._delivery_queue or self._delivered_count:
            raise ProtocolViolationError(
                "fast_forward requires an instance with no scheduled deliveries"
            )
        if round_number <= self._round:
            raise ValueError(f"cannot fast-forward backwards to round {round_number}")
        self._collect(self._round)
        self._round = round_number
        self._gc_floor = round_number
        self._sched_cum.clear()
        self._sched_total = 0
        self._position_base = None
        if frontier:
            self.absorb_frontier(frontier)
        self.fast_forwards += 1
        self._ensure_vect_instances(round_number)
        self._maybe_start_round()

    def absorb_frontier(self, frontier: list) -> None:
        """Merge additional delivered-id knowledge mid-stream.

        Used when a catching-up replica absorbs a checkpoint newer than
        its bootstrap one: identifiers the group delivered meanwhile must
        never be vouched for or re-delivered here.  Watermarks only move
        forward, so absorbing is always safe.  Payloads and RB instances
        picked up for those identifiers while catching up are reclaimed
        exactly as if the messages had delivered here.
        """
        self._install_frontier(frontier)
        held = set(self._received)
        depth = len(self.path)
        held.update(path[-2:] for path in self.children if path[depth] == "msg")
        for msg_id in held:
            if self._is_delivered(msg_id):
                self._reclaim_msg(msg_id)

    def inject_payload(self, msg_id: MsgId, payload: Any) -> bool:
        """Hand this instance a payload fetched out-of-band.

        A replica that joined mid-stream can hold agreed identifiers
        whose reliable broadcast completed while it was down; the
        recovery layer fetches the payload from peers and unblocks the
        delivery queue here.  Only identifiers that are scheduled,
        undelivered and still missing are accepted.
        """
        if (
            msg_id not in self._scheduled
            or msg_id in self._received
            or self._is_delivered(msg_id)
        ):
            return False
        self._received[msg_id] = payload
        self.payloads_injected += 1
        self._drain_delivery_queue()
        return True

    def stalled_ids(self, limit: int = 32) -> list[MsgId]:
        """Scheduled identifiers whose payload has not arrived, in
        delivery order (the head of the list blocks everything else)."""
        out: list[MsgId] = []
        for msg_id in self._delivery_queue:
            if msg_id not in self._received:
                out.append(msg_id)
                if len(out) >= limit:
                    break
        return out

    def resume_broadcast_ids(self, next_rbid: int) -> None:
        """Never assign broadcast ids below *next_rbid*.

        A restarted replica must not reuse rbids from its previous
        incarnation: peers treat delivered identifiers as duplicates,
        so a reused id would be silently ignored group-wide.  The
        recovery layer learns the highest id peers have seen from us
        and resumes above it.
        """
        if next_rbid > self._next_rbid:
            self._next_rbid = next_rbid

    def max_rbid_from(self, sender: int) -> int:
        """Highest rbid this instance has seen attributed to *sender*
        (delivered, received or scheduled); ``-1`` if none."""
        best = self._frontier.get(sender, -1)
        for source in (self._frontier_sparse, self._received, self._scheduled):
            for s, r in source:
                if s == sender and r > best:
                    best = r
        return best

    def nudge(self, payload: Any) -> MsgId:
        """Broadcast *payload* outside the ``config.ab_pending_cap``
        admission bound.

        For the recovery layer's join nudges only.  A fast-forwarded
        replica's own messages ordered below its join round reach it
        through the state transfer the join is waiting for, not through
        this instance, so they count as pending until the join completes.
        Under the cap they would refuse the very nudges that carry the
        group to the join round.  The caller sends at most one per
        request wave.
        """
        return self._send_msg(payload)

    def note_delivered_external(self, msg_id: MsgId) -> bool:
        """Mark *msg_id* delivered outside this instance (applied from a
        transferred log suffix).  Refused for identifiers this instance
        has scheduled itself -- those must flow through the queue."""
        if msg_id in self._scheduled:
            return False
        self._mark_delivered(msg_id)
        self._reclaim_msg(msg_id)
        return True

    # -- instance management -------------------------------------------------------------

    def _open_msg_instance(self, sender: int, rbid: int) -> ControlBlock:
        self._open_msg_instances[sender] = self._open_msg_instances.get(sender, 0) + 1
        return self.make_child(
            "rb", ("msg", sender, rbid), sender=sender, purpose=PURPOSE_PAYLOAD
        )

    def _close_msg_instance(self, rb: ControlBlock) -> None:
        rb.destroy()
        self._open_msg_instances[rb.path[-2]] -= 1

    def _reclaim_msg(self, msg_id: MsgId) -> None:
        """Forget a delivered message: its payload and its RB instance.

        An RB instance that has delivered has sent its READY (f + 1
        READYs trigger it, delivery takes 2f + 1) and owes peers nothing
        more; votes still in flight resolve to ``ORPHAN_STALE``.  One
        that has not (the payload was injected) may still owe a READY
        and stays until its round is collected.
        """
        self._received.pop(msg_id, None)
        rb = self.children.get(self.path + ("msg",) + msg_id)
        if rb is None:
            return
        if rb.delivered:  # type: ignore[attr-defined]
            self._close_msg_instance(rb)
        else:
            self._collectable.append((self._round, msg_id))

    def _ensure_vect_instances(self, round_number: int) -> None:
        # One construction window: a laggard's replay of parked frames
        # can carry it through many rounds -- past collecting this one --
        # so it must not run between two of these creations.
        self.stack._begin_construction()
        try:
            for j in self.config.process_ids:
                path = self.path + ("vect", round_number, j)
                if path not in self.children:
                    self.make_child(
                        "rb", ("vect", round_number, j), sender=j, purpose=PURPOSE_AGREEMENT
                    )
        finally:
            self.stack._end_construction()

    def accept_orphan(self, mbuf: Mbuf) -> "bool | object":
        """Create receiver-side instances on demand (dynamic demux).

        AB_MSG identifiers are not knowable in advance, so the reliable
        broadcast instance for a peer's ``(sender, rbid)`` is created on
        first contact -- subject to a per-sender window that stops a
        corrupt process from minting unbounded instances.

        Frames addressed to *retired* state -- an already-delivered
        message id, or agreement machinery (``vect``/``mvc`` subtrees)
        of a round below the GC floor -- are reported
        :data:`~repro.core.stack.ORPHAN_STALE`: a laggard catching up
        after the group checkpointed past it re-sends them freely, and
        nothing will ever drain them from the out-of-context table.
        """
        suffix = mbuf.path[len(self.path) :]
        if len(suffix) == 3 and suffix[0] == "msg":
            _, sender, rbid = suffix
            if (
                isinstance(sender, int)
                and isinstance(rbid, int)
                and sender in self.config.process_ids
                and rbid >= 0
            ):
                if self._is_delivered((sender, rbid)):
                    return ORPHAN_STALE
                if self._open_msg_instances.get(sender, 0) >= MSG_WINDOW:
                    # Attribution rule: score only when the flooder is
                    # speaking for itself -- an honest process echoing a
                    # corrupt sender's broadcast must never be blamed.
                    if mbuf.src == sender:
                        self.stack.report_misbehavior(sender, "msg-window")
                    return False
                self._open_msg_instance(sender, rbid)
                return True
            return False
        if len(suffix) >= 2 and suffix[0] in ("vect", "mvc") and isinstance(suffix[1], int):
            round_number = suffix[1]
            if round_number < self._gc_floor:
                return ORPHAN_STALE
            if (
                suffix[0] == "vect"
                and len(suffix) == 3
                and round_number == self._round
                and suffix[2] in self.config.process_ids
            ):
                self._ensure_vect_instances(round_number)
                return True
        return False

    # -- receiving ---------------------------------------------------------------------------

    def input(self, mbuf: Mbuf) -> None:
        raise ProtocolViolationError("atomic broadcast accepts no direct frames")

    def child_event(self, child: ControlBlock, event: Any) -> None:
        if self.destroyed:
            return
        kind = child.path[len(self.path)]
        if kind == "msg":
            sender, rbid = child.path[-2:]
            msg_id = (sender, rbid)
            if msg_id not in self._received and not self._is_delivered(msg_id):
                self._received[msg_id] = event
                self._drain_delivery_queue()
                self._maybe_start_round()
        elif kind == "vect":
            round_number, sender = child.path[-2:]
            self._on_vect(round_number, sender, event)
        elif kind == "mvc":
            self._on_agreement(child.path[-1], event)

    def _on_vect(self, round_number: int, sender: int, payload: Any) -> None:
        ranges = parse_id_ranges(payload, self.config.process_ids)
        if ranges is None:
            return  # malformed vector from a corrupt process
        vects = self._round_vects.setdefault(round_number, {})
        if sender in vects:
            return
        vects[sender] = ranges
        self._maybe_start_round()
        self._maybe_propose(round_number)

    # -- the agreement task -------------------------------------------------------------------

    def _pending_ids(self) -> list[MsgId]:
        # A fast-forwarded instance that has not yet learned its position
        # anchor holds stale knowledge: payloads gathered while it was
        # catching up may already be delivered group-wide.  Until the
        # recovery layer anchors it, it vouches for nothing (peers vouch
        # for genuinely pending messages; f+1 support never needs us).
        if self._position_base is None:
            return []
        return [msg_id for msg_id in self._received if msg_id not in self._scheduled]

    def _maybe_start_round(self) -> None:
        """Send our AB_VECT for the current round once there is a reason to:
        we hold undelivered messages, or a peer opened the round."""
        round_number = self._round
        if round_number in self._vect_sent:
            return
        pending = self._pending_ids()
        if not pending and not self._round_vects.get(round_number):
            return
        self._vect_sent.add(round_number)
        self._ensure_vect_instances(round_number)
        rb = self.children[self.path + ("vect", round_number, self.me)]
        rb.broadcast(self._vect_ids(encode_id_ranges(pending)))  # type: ignore[attr-defined]
        self._maybe_propose(round_number)

    def _vect_ids(self, computed: list[list[int]]) -> Any:
        """Payload actually sent in the AB_VECT; the adversary hook."""
        return computed

    def _maybe_propose(self, round_number: int) -> None:
        if (
            round_number != self._round
            or round_number in self._mvc_proposed
            or round_number not in self._vect_sent
        ):
            return
        vects = self._round_vects.get(round_number, {})
        if len(vects) < self.config.wait_quorum:
            return
        self._mvc_proposed.add(round_number)
        # f+1 support needs a correct voucher, so the supported ranges
        # span only ids some correct process holds: safe to expand.
        supported = supported_id_ranges(vects.values(), self.config.f + 1)
        chosen = [
            msg_id
            for msg_id in expand_id_ranges(supported)
            if msg_id not in self._scheduled and not self._is_delivered(msg_id)
        ]
        self.agreements_started += 1
        if self.stack.metrics.enabled:
            self._agreement_started_at[round_number] = self.stack.clock()
        mvc = self.make_child("mvc", ("mvc", round_number), purpose=PURPOSE_AGREEMENT)
        # MVC compares proposals by their encoding: the canonical form
        # makes equal sets equal values.
        mvc.propose(encode_id_ranges(chosen))  # type: ignore[attr-defined]

    def _on_agreement(self, round_number: int, decision: Any) -> None:
        if round_number != self._round:
            return
        ranges = parse_id_ranges(decision, self.config.process_ids)
        ids = expand_id_ranges(ranges) if ranges else None
        if ids:
            for msg_id in ids:
                # Skip identifiers awaiting delivery *or* already
                # delivered (here, or -- on a fast-forwarded instance --
                # group-wide per the transferred frontier): peers skip
                # them the same way, so re-delivering would diverge.
                if msg_id not in self._scheduled and not self._is_delivered(msg_id):
                    self._scheduled.add(msg_id)
                    self._delivery_queue.append(msg_id)
                    self._sched_total += 1
        else:
            self.agreements_empty += 1
        started = self._agreement_started_at.pop(round_number, None)
        if started is not None and self.stack.metrics.enabled:
            self.stack.metrics.histogram(
                "ritas_ab_agreement_seconds",
                outcome="empty" if not ids else "batch",
            ).observe(self.stack.clock() - started)
        self._sched_cum[round_number] = self._sched_total
        self._round += 1
        self._ensure_vect_instances(self._round)
        self._drain_delivery_queue()
        self._collect(self._round - 1 - RETAINED_ROUNDS)
        self._maybe_start_round()

    def _drain_delivery_queue(self) -> None:
        """Deliver scheduled messages whose payload has arrived, strictly
        in queue order (total order requires the head to block the rest)."""
        while self._delivery_queue:
            msg_id = self._delivery_queue[0]
            if msg_id not in self._received:
                return
            self._delivery_queue.popleft()
            self._scheduled.discard(msg_id)
            payload = self._received[msg_id]
            submitted = self._submit_times.pop(msg_id, None)
            if submitted is not None and self.stack.metrics.enabled:
                self.stack.metrics.histogram(
                    "ritas_ab_delivery_latency_seconds"
                ).observe(self.stack.clock() - submitted)
            self._mark_delivered(msg_id)
            self._reclaim_msg(msg_id)
            delivery = AbDelivery(
                sender=msg_id[0],
                rbid=msg_id[1],
                payload=payload,
                sequence=self._delivered_count,
            )
            self._delivered_count += 1
            if self.order_log is not None:
                self.order_log.append(
                    (msg_id[0], msg_id[1], hash_bytes(encode_value(payload)))
                )
            self.deliver(delivery)

    def _collect(self, horizon: int) -> None:
        """Destroy protocol instances for rounds at or before *horizon*."""
        if horizon < 0:
            return
        for round_number in [r for r in self._round_vects if r <= horizon]:
            del self._round_vects[round_number]
        self._vect_sent = {r for r in self._vect_sent if r > horizon}
        self._mvc_proposed = {r for r in self._mvc_proposed if r > horizon}
        # Keep position entries for one extra window so state-transfer
        # responses can still anchor recent round boundaries.
        position_horizon = horizon - 8
        for round_number in [r for r in self._sched_cum if r <= position_horizon]:
            del self._sched_cum[round_number]
        for round_number in range(self._gc_floor, horizon + 1):
            mvc = self.children.get(self.path + ("mvc", round_number))
            if mvc is not None:
                mvc.destroy()
            for j in self.config.process_ids:
                vect = self.children.get(self.path + ("vect", round_number, j))
                if vect is not None:
                    vect.destroy()
        self._gc_floor = max(self._gc_floor, horizon + 1)
        while self._collectable and self._collectable[0][0] <= horizon:
            _, msg_id = self._collectable.popleft()
            rb = self.children.get(self.path + ("msg",) + msg_id)
            if rb is not None:
                self._close_msg_instance(rb)

"""Atomic broadcast (Section 2.7 of the paper).

Reliable broadcast plus *total order*: every correct process delivers
the same messages in the same order.  The implementation follows the
paper's optimized variant of Correia et al.'s protocol: agreement runs
on compact *message identifiers* ``(sender, rbid)`` instead of
cryptographic hashes, and uses multi-valued consensus directly instead
of vector consensus.

Two conceptual tasks:

1. **Broadcast** -- to A-broadcast *m*, a process assigns it the next
   ``rbid``; the pair ``(i, rbid)`` identifies *m* system-wide.  The
   messages a process broadcasts inside one flush window
   (:meth:`Stack.coalesce`, or the window :meth:`Stack.receive` opens
   around each inbound unit) travel together as one *batch*: a reliable
   broadcast at ``("msg", i, first, last)`` whose payload is the list of
   the ``last - first + 1`` messages.  Outside a window, or with
   ``config.batching`` off (the paper's stack), every message is a
   batch of one -- the paper's per-message pattern.
2. **Agreement** -- in rounds: each process reliably broadcasts
   ``(AB_VECT, i, r, V_i)`` with the batches it has received whose
   messages are not yet ordered; after ``n - f`` such vectors it builds
   ``W_i``, the batches present in ``f + 1`` or more of them (so every
   chosen batch was vouched for by a correct process, and RB totality
   brings its content everywhere), and proposes ``W_i`` to multi-valued
   consensus.  A process opens a round once it holds an unordered batch
   or a peer's vector for the round.  A batch that delivers inside a
   flush window with ``config.batching`` on opens it as the window
   closes, so one vector names every batch the window delivered.

A non-⊥ decision is cut once, batch by batch in ``(sender, first,
last)`` order, into *runs*: the maximal stretches of a batch's ids that
are neither delivered nor already queued.  The delivery queue holds
these runs and hands each over in rbid order, one message at a time; a
batch is reclaimed when its last run is taken.  Skipping queued and
delivered ids means a corrupt sender's overlapping batches deliver each
id once, from the first decided batch that names it -- and RB agreement
fixes that batch's content, so every correct process delivers the same
payload.  The cut reads agreed state alone, so every correct process
cuts alike.

The batching at both levels is what makes the protocol cheap at high
load: one agreement orders every batch that arrived while the previous
agreement ran, so the relative cost of agreement *dilutes* as bursts
grow (Figure 7 of the paper), and one reliable broadcast carries every
message of a flush window.  Agreement payloads list the sorted,
distinct batches, a sender's back-to-back batches in one entry with
every boundary kept (:func:`encode_batches`); the delivered frontier is
the merged id-range form (:func:`encode_id_ranges`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter, deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Iterable

from repro.core.errors import BackpressureError, ProtocolViolationError
from repro.core.mbuf import Mbuf
from repro.core.stack import ORPHAN_STALE, ControlBlock, Stack
from repro.core.stats import PURPOSE_AGREEMENT, PURPOSE_PAYLOAD
from repro.core.wire import Path, encode_payload_item, splice_list_payload

#: (sender pid, sender-local broadcast id)
MsgId = tuple[int, int]

#: (sender pid, first rbid, last rbid): a run of consecutive identifiers.
IdRange = tuple[int, int, int]

#: (sender pid, first rbid, last rbid): one sender's batch of messages,
#: carried by one reliable broadcast instance.
Batch = tuple[int, int, int]

#: A queued run ``[sender, next, last, batch]``: ids ``next..last`` of
#: *sender* are decided and undelivered, and deliver from *batch*;
#: ``next`` is the cursor, advanced as each id is handed over.
Run = list

_RUN_LAST = itemgetter(2)

#: Defensive cap on identifiers one id set may expand to (per sender,
#: watermarks excepted, in a frontier): a corrupt process must not be
#: able to blow up memory with one giant vector.
MAX_VECT_IDS = 65536

#: Most messages one batch may carry.  A sender splits a longer flush
#: window into batches of this size; receivers refuse larger ones.
MAX_BATCH_MSGS = 1024

#: Decided rounds kept behind the current one: round r's ``vect``/``mvc``
#: subtree is destroyed when round r + 2 decides.  That took n - f
#: round-(r + 2) vectors, each sent after its sender decided r + 1, so
#: f + 1 correct processes are past r (DESIGN section 3).
RETAINED_ROUNDS = 2

#: Per-sender cap on *open* receiver-side batch instances (created, not
#: yet reclaimed): the dynamic-demultiplexing window that stops a
#: corrupt process from minting unbounded RB instances.
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


def encode_batches(batches: Iterable[Batch]) -> list[list[int]]:
    """Wire form of a set of batches: sorted and distinct, one entry per
    run of a sender's back-to-back batches.  ``[sender, first, l1, l2,
    ...]`` names the batches ``(sender, first, l1)``, ``(sender, l1 + 1,
    l2)``, ...: every boundary is kept, so one triple still names one RB
    instance, and a correct sender's stream of batches costs one entry
    however many batches it holds.  Runs are maximal, so every set has
    exactly one spelling."""
    out: list[list[int]] = []
    for sender, first, last in sorted(set(batches)):
        if out and out[-1][0] == sender and out[-1][-1] == first - 1:
            out[-1].append(last)
        else:
            out.append([sender, first, last])
    return out


def parse_batches(payload: Any, process_ids: range) -> list[Batch] | None:
    """Validate an untrusted batch list; the batches in sorted order, or
    ``None`` unless *payload* is exactly what :func:`encode_batches`
    produces for batches of known senders, each at most
    :data:`MAX_BATCH_MSGS` long, together naming at most
    :data:`MAX_VECT_IDS` ids (counted from the bounds)."""
    if type(payload) is not list:
        return None
    out: list[Batch] = []
    count = 0
    for entry in payload:
        if type(entry) is not list or len(entry) < 3:
            return None
        sender, first = entry[0], entry[1]
        if type(sender) is not int or sender not in process_ids:
            return None
        if type(first) is not int or first < 0:
            return None
        if out and out[-1][0] == sender and out[-1][2] == first - 1:
            return None  # the previous run should have continued
        for last in entry[2:]:
            if type(last) is not int or not first <= last < first + MAX_BATCH_MSGS:
                return None
            batch = (sender, first, last)
            if out and batch <= out[-1]:
                return None  # unsorted or duplicated
            count += last - first + 1
            if count > MAX_VECT_IDS:
                return None
            out.append(batch)
            first = last + 1
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
        # Encoded payloads broadcast in the open flush window, not yet
        # sent: ids _next_rbid - len(_batch) .. _next_rbid - 1.
        self._batch: list[bytes] = []
        self._open_msg_instances: dict[int, int] = {}
        # Well-formed RB-delivered batch contents still needed: vouched
        # for, or bound to queued runs.  Forgotten when the last run
        # bound to the batch is taken.
        self._batches: dict[Batch, list] = {}
        # Per batch, how many queued runs deliver from it.
        self._bound: dict[Batch, int] = {}
        # Payloads fetched out-of-band for queued ids (recovery).
        self._injected: dict[MsgId, Any] = {}
        # Batches whose RB delivered a malformed value: destroyed, and
        # frames for them are stale from then on (they keep their slot
        # in the sender's window).
        self._malformed: set[Batch] = set()
        # Delivered identifiers, kept compact: per-sender contiguous
        # watermark (every rbid <= it is delivered) plus a sparse set of
        # delivered ids above their sender's watermark.  Bounded by the
        # number of in-flight messages, not by history length -- and
        # directly transferable to a recovering replica.
        self._frontier: dict[int, int] = {}
        self._frontier_sparse: set[MsgId] = set()
        self._delivered_count = 0
        # Decided, undelivered runs in delivery order; the same runs per
        # sender, sorted (they are disjoint, so by first or last id alike).
        self._delivery_queue: deque[Run] = deque()
        self._queued: dict[int, deque[Run]] = {}
        self._draining = False
        self._round = 0
        self._round_vects: dict[int, dict[int, list[Batch]]] = {}
        self._vect_sent: set[int] = set()
        self._mvc_proposed: set[int] = set()
        # (round, batch) of batches reclaimed before their RB instance
        # delivered here (their ids delivered from injected payloads, or
        # were ordered from other batches): the instance may still owe a
        # READY, so it waits for the round rule.
        self._collectable: deque[tuple[int, Batch]] = deque()
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
        self._ensure_vect_instances(0)

    # -- public API -----------------------------------------------------------------

    def broadcast(self, payload: Any) -> MsgId:
        """Atomically broadcast *payload*; returns its system-wide id.

        The message is delivered through :attr:`on_deliver` (in total
        order, at every correct process) -- not returned here.  Inside a
        flush window with ``config.batching`` on, it joins this
        process's open batch, sent when the outermost window closes (or
        at :data:`MAX_BATCH_MSGS` messages); otherwise it is sent at
        once, as a batch of one.

        Raises:
            TypeError, ValueError: *payload* cannot be encoded (a type
                the codec lacks, or nested too deep); no id is taken.
            BackpressureError: ``config.ab_pending_cap`` locally
                submitted messages are still undelivered -- admitting
                more would only grow queues everywhere.  Resubmit after
                deliveries drain.
        """
        cap = self.config.ab_pending_cap
        if cap and self.pending_local >= cap:
            self.stack.stats.record_backpressure(self.path, self.pending_local, cap)
            raise BackpressureError(
                f"{self.pending_local} local messages undelivered (cap {cap})",
                pending=self.pending_local,
                cap=cap,
            )
        return self._send_msg(payload)

    def _send_msg(self, payload: Any) -> MsgId:
        # Encoded here, once: an unencodable payload is refused before it
        # takes an id, and never fails the window close that sends it.
        raw = encode_payload_item(payload)
        rbid = self._next_rbid
        self._next_rbid += 1
        self.stack.stats.record_submit(self.path, rbid)
        if not self._batch and not (
            self.config.batching and self.stack.at_window_close(self._flush_batch)
        ):
            self._send_batch(rbid, [raw])
            return (self.me, rbid)
        self._batch.append(raw)
        if len(self._batch) >= MAX_BATCH_MSGS:
            self._flush_batch()
        return (self.me, rbid)

    def _flush_batch(self) -> None:
        """Send the open batch (the stack runs this at window close)."""
        batch, self._batch = self._batch, []
        if batch and not self.destroyed:
            self._send_batch(self._next_rbid - len(batch), batch)

    def _send_batch(self, first: int, raws: list[bytes]) -> None:
        last = first + len(raws) - 1
        rb = self._open_msg_instance(self.me, first, last)
        rb.broadcast_raw(splice_list_payload(raws))  # type: ignore[attr-defined]

    @property
    def delivered_count(self) -> int:
        return self._delivered_count

    # -- introspection --------------------------------------------------------------

    def inspect(self) -> dict[str, Any]:
        state = super().inspect()
        state["delivered_count"] = self._delivered_count
        state["round"] = self._round
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

    def _all_delivered(self, batch: Batch) -> bool:
        sender, first, last = batch
        if last <= self._frontier.get(sender, -1):
            return True
        return all(self._is_delivered((sender, r)) for r in range(first, last + 1))

    def _unordered(self, batch: Batch) -> bool:
        """True if some id of *batch* is neither queued nor delivered:
        the batch can still bind ids, so it is worth vouching for."""
        return bool(self._cut(batch))

    def _cut(self, batch: Batch) -> list[tuple[int, int]]:
        """The maximal ``(first, last)`` stretches of *batch*'s ids that
        are neither delivered nor queued, in rbid order."""
        sender, first, last = batch
        lo = max(first, self._frontier.get(sender, -1) + 1)
        if lo > last:
            return []
        taken: list = []
        runs = self._queued.get(sender)
        if runs and runs[-1][2] >= lo:
            i = bisect_left(runs, lo, key=_RUN_LAST)
            while i < len(runs) and runs[i][1] <= last:
                taken.append((runs[i][1], runs[i][2]))
                i += 1
        if self._frontier_sparse:
            taken += [(r, r) for s, r in self._frontier_sparse if s == sender and lo <= r <= last]
            taken.sort()
        out = []
        for start, end in taken:
            if start > lo:
                out.append((lo, start - 1))
            lo = max(lo, end + 1)
        if lo <= last:
            out.append((lo, last))
        return out

    def _queued_run(self, msg_id: MsgId) -> Run | None:
        """The queued run holding undelivered *msg_id*, if any."""
        sender, rbid = msg_id
        runs = self._queued.get(sender)
        if runs:
            i = bisect_left(runs, rbid, key=_RUN_LAST)
            if i < len(runs) and runs[i][1] <= rbid:
                return runs[i]
        return None

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
        if self._delivery_queue or self._delivered_count:
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
        self._reclaim_delivered(self._held_batches())

    def inject_payload(self, msg_id: MsgId, payload: Any) -> bool:
        """Hand this instance a payload fetched out-of-band.

        A replica that joined mid-stream can hold agreed identifiers
        whose reliable broadcast completed while it was down; the
        recovery layer fetches the payload from peers and unblocks the
        delivery queue here.  Only identifiers that are scheduled,
        undelivered and still missing are accepted.
        """
        run = self._queued_run(msg_id)
        if (
            run is None
            or run[3] in self._batches
            or msg_id in self._injected
            or self._is_delivered(msg_id)
        ):
            return False
        self._injected[msg_id] = payload
        self.payloads_injected += 1
        self._drain_delivery_queue()
        return True

    def stalled_ids(self, limit: int = 32) -> list[MsgId]:
        """Scheduled identifiers whose payload has not arrived, in
        delivery order (the head of the list blocks everything else)."""
        out: list[MsgId] = []
        for sender, rbid, last, batch in self._delivery_queue:
            if batch in self._batches:
                continue
            for r in range(rbid, last + 1):
                if (sender, r) not in self._injected:
                    out.append((sender, r))
                    if len(out) >= limit:
                        return out
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
            self._flush_batch()  # its ids are consecutive below the jump
            self._next_rbid = next_rbid

    def max_rbid_from(self, sender: int) -> int:
        """Highest rbid this instance has seen attributed to *sender*
        (delivered, received or scheduled); ``-1`` if none."""
        best = self._frontier.get(sender, -1)
        runs = self._queued.get(sender)
        if runs:
            best = max(best, runs[-1][2])
        for s, r in self._frontier_sparse:
            if s == sender and r > best:
                best = r
        for s, _, last in self._batches:
            if s == sender and last > best:
                best = last
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
        has queued itself -- those must flow through the queue."""
        if self._queued_run(msg_id) is not None:
            return False
        self._mark_delivered(msg_id)
        sender, rbid = msg_id
        self._reclaim_delivered(
            b for b in self._held_batches() if b[0] == sender and b[1] <= rbid <= b[2]
        )
        return True

    # -- instance management -------------------------------------------------------------

    def _open_msg_instance(self, sender: int, first: int, last: int) -> ControlBlock:
        self._open_msg_instances[sender] = self._open_msg_instances.get(sender, 0) + 1
        return self.make_child(
            "rb", ("msg", sender, first, last), sender=sender, purpose=PURPOSE_PAYLOAD
        )

    def _close_msg_instance(self, rb: ControlBlock) -> None:
        rb.destroy()
        self._open_msg_instances[rb.path[-3]] -= 1

    def _held_batches(self) -> set[Batch]:
        """Batches with content or a live RB instance here."""
        depth = len(self.path)
        held = set(self._batches)
        held.update(path[depth + 1 :] for path in self.children if path[depth] == "msg")
        return held

    def _reclaim_delivered(self, batches: Iterable[Batch]) -> None:
        """Reclaim the unbound *batches* all of whose ids are delivered."""
        for batch in batches:
            if batch not in self._bound and self._all_delivered(batch):
                self._reclaim_batch(batch)

    def _reclaim_batch(self, batch: Batch) -> None:
        """Forget a batch no scheduled id is bound to: its content and
        its RB instance.

        An RB instance that has delivered has sent its READY (f + 1
        READYs trigger it, delivery takes 2f + 1) and owes peers nothing
        more; votes still in flight resolve to ``ORPHAN_STALE`` once its
        ids are delivered.  One that has not (its ids delivered from
        injected payloads, or were ordered from other batches) may still
        owe a READY and stays until its round is collected.
        """
        self._batches.pop(batch, None)
        rb = self.children.get(self.path + ("msg",) + batch)
        if rb is None:
            return
        if rb.delivered:  # type: ignore[attr-defined]
            self._close_msg_instance(rb)
        else:
            self._collectable.append((self._round, batch))

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

        Batch paths ``("msg", sender, first, last)`` are not knowable in
        advance, so the reliable broadcast instance for a peer's batch
        is created on first contact -- subject to a per-sender window
        that stops a corrupt process from minting unbounded instances,
        and to the :data:`MAX_BATCH_MSGS` length cap.

        Frames addressed to *retired* state -- a batch whose ids are all
        delivered, a batch whose RB delivered a malformed value, or
        agreement machinery (``vect``/``mvc`` subtrees) of a round below
        the GC floor -- are reported
        :data:`~repro.core.stack.ORPHAN_STALE`: a laggard catching up
        after the group checkpointed past it re-sends them freely, and
        nothing will ever drain them from the out-of-context table.
        """
        suffix = mbuf.path[len(self.path) :]
        if len(suffix) == 4 and suffix[0] == "msg":
            _, sender, first, last = suffix
            if (
                type(sender) is int
                and type(first) is int
                and type(last) is int
                and sender in self.config.process_ids
                and 0 <= first <= last
                and last - first < MAX_BATCH_MSGS
            ):
                batch = (sender, first, last)
                if batch in self._malformed or self._all_delivered(batch):
                    return ORPHAN_STALE
                if self._open_msg_instances.get(sender, 0) >= MSG_WINDOW:
                    # Attribution rule: score only when the flooder is
                    # speaking for itself -- an honest process echoing a
                    # corrupt sender's broadcast must never be blamed.
                    if mbuf.src == sender:
                        self.stack.report_misbehavior(sender, "msg-window")
                    return False
                self._open_msg_instance(sender, first, last)
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
            self._on_batch(child, event)
        elif kind == "vect":
            round_number, sender = child.path[-2:]
            self._on_vect(round_number, sender, event)
        elif kind == "mvc":
            self._on_agreement(child.path[-1], event)

    def _on_batch(self, rb: ControlBlock, content: Any) -> None:
        batch: Batch = rb.path[-3:]  # type: ignore[assignment]
        if type(content) is not list or len(content) != batch[2] - batch[1] + 1:
            # Only a corrupt sender sends this; RB agreement means every
            # correct process sees it and none vouches for it.  The
            # batch keeps its slot in the sender's window.
            rb.destroy()
            self._malformed.add(batch)
            return
        if batch in self._bound or self._unordered(batch):
            self._batches[batch] = content
            self._drain_delivery_queue()
            # Inside a flush window the round opens when it closes, so the
            # vector names every batch the inbound unit delivers.
            if self._round not in self._vect_sent and not (
                self.config.batching and self.stack.at_window_close(self._maybe_start_round)
            ):
                self._maybe_start_round()
        else:
            # Every id is delivered, or bound to another batch: this one
            # can never be delivered from.
            self._close_msg_instance(rb)

    def _on_vect(self, round_number: int, sender: int, payload: Any) -> None:
        batches = parse_batches(payload, self.config.process_ids)
        if batches is None:
            return  # malformed vector from a corrupt process
        vects = self._round_vects.setdefault(round_number, {})
        if sender in vects:
            return
        vects[sender] = batches
        self._maybe_start_round()
        self._maybe_propose(round_number)

    # -- the agreement task -------------------------------------------------------------------

    def _pending_batches(self) -> list[Batch]:
        # A fast-forwarded instance that has not yet learned its position
        # anchor holds stale knowledge: batches gathered while it was
        # catching up may already be delivered group-wide.  Until the
        # recovery layer anchors it, it vouches for nothing (peers vouch
        # for genuinely pending batches; f+1 support never needs us).
        if self._position_base is None:
            return []
        # A bound batch had every id queued when it was decided.
        return [b for b in self._batches if b not in self._bound and self._unordered(b)]

    def _maybe_start_round(self) -> None:
        """Send our AB_VECT for the current round once there is a reason to:
        we hold unordered batches, or a peer opened the round."""
        round_number = self._round
        if round_number in self._vect_sent or self.destroyed:
            return
        pending = self._pending_batches()
        if not pending and not self._round_vects.get(round_number):
            return
        self._vect_sent.add(round_number)
        self._ensure_vect_instances(round_number)
        rb = self.children[self.path + ("vect", round_number, self.me)]
        rb.broadcast(self._vect_ids(encode_batches(pending)))  # type: ignore[attr-defined]
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
        # f+1 identical triples need a correct voucher, which holds the
        # batch: RB totality brings its content to every correct process.
        support = Counter(batch for batches in vects.values() for batch in batches)
        threshold = self.config.f + 1
        chosen = [
            batch
            for batch, votes in support.items()
            if votes >= threshold and self._unordered(batch)
        ]
        self.agreements_started += 1
        self.stack.stats.record_agreement(self.path, round_number)
        mvc = self.make_child("mvc", ("mvc", round_number), purpose=PURPOSE_AGREEMENT)
        # MVC compares proposals by their encoding: the canonical form
        # makes equal sets equal values.
        mvc.propose(encode_batches(chosen))  # type: ignore[attr-defined]

    def _on_agreement(self, round_number: int, decision: Any) -> None:
        if round_number != self._round:
            return
        batches = parse_batches(decision, self.config.process_ids)
        if batches:
            for batch in batches:
                self._schedule(batch)
        else:
            self.agreements_empty += 1
        self.stack.stats.record_agreed(
            self.path, round_number, "batch" if batches else "empty"
        )
        self._sched_cum[round_number] = self._sched_total
        self._round += 1
        self._ensure_vect_instances(self._round)
        self._drain_delivery_queue()
        self._collect(self._round - 1 - RETAINED_ROUNDS)
        self._maybe_start_round()

    def _schedule(self, batch: Batch) -> None:
        """Queue a decided batch's undelivered ids as runs bound to it.

        Identifiers awaiting delivery *or* already delivered (here, or
        -- on a fast-forwarded instance -- group-wide per the
        transferred frontier) are skipped: peers skip them the same
        way, so re-delivering would diverge.
        """
        cut = self._cut(batch)
        if not cut:
            if batch not in self._bound:
                self._reclaim_batch(batch)
            return
        sender = batch[0]
        runs = self._queued.setdefault(sender, deque())
        for first, last in cut:
            run = [sender, first, last, batch]
            self._delivery_queue.append(run)
            if runs and runs[-1][2] > last:
                insort(runs, run, key=_RUN_LAST)
            else:
                runs.append(run)
            self._sched_total += last - first + 1
        self._bound[batch] = self._bound.get(batch, 0) + len(cut)

    def _take_run(self, run: Run) -> None:
        """Unqueue the head run and unbind it from its batch."""
        sender, _, last, batch = run
        self._delivery_queue.popleft()
        runs = self._queued[sender]
        if runs[0] is run:
            runs.popleft()
        else:
            del runs[bisect_left(runs, last, key=_RUN_LAST)]
        if not runs:
            del self._queued[sender]
        left = self._bound[batch] - 1
        if left:
            self._bound[batch] = left
        else:
            del self._bound[batch]
            self._reclaim_batch(batch)

    def _drain_delivery_queue(self) -> None:
        """Deliver queued runs whose payloads have arrived, strictly in
        queue order (total order requires the head to block the rest).

        A run whose batch content is missing delivers id by id from
        injected payloads.  Every callback sees the cursor, frontier and
        queue exactly as of its own delivery.  A nested call (a
        callback injecting a payload) returns at once: this loop goes on
        from the next id and picks up whatever the callback added.
        """
        if self._draining:
            return
        self._draining = True
        try:
            queue, injected = self._delivery_queue, self._injected
            frontier = self._frontier
            while queue:
                run = queue[0]
                sender, rbid, last, batch = run
                content = self._batches.get(batch)
                if content is not None:
                    base = batch[1]
                    payloads = content[rbid - base : last - base + 1]
                    for s, r in [m for m in injected if m[0] == sender]:
                        if rbid <= r <= last:
                            del injected[s, r]
                elif (sender, rbid) in injected:
                    payloads = [injected.pop((sender, rbid))]
                else:
                    return
                # An absorbed frontier can put sparse ids inside a queued
                # run; with none about, an in-order run only moves the watermark.
                in_order = not self._frontier_sparse and rbid == frontier.get(sender, -1) + 1
                for payload in payloads:
                    run[1] = rbid + 1
                    if rbid == last:
                        self._take_run(run)
                    # Every callback sees its own id delivered: checkpoints
                    # taken in one record the frontier.
                    if in_order and rbid < last:
                        frontier[sender] = rbid
                    else:
                        self._mark_delivered((sender, rbid))
                    delivery = AbDelivery(sender, rbid, payload, self._delivered_count)
                    self._delivered_count += 1
                    self.deliver(delivery)
                    rbid += 1
        finally:
            self._draining = False

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
            _, batch = self._collectable.popleft()
            rb = self.children.get(self.path + ("msg",) + batch)
            if rb is not None:
                self._close_msg_instance(rb)

"""Statistics collected by a running stack, and its one record point.

The evaluation section of the paper reports three kinds of quantities
that must be observable from outside the protocols:

- frame counts and byte counts (network load, IPSec overhead);
- *broadcast* counts split by purpose, for Figure 7's "relative cost of
  agreement" (agreement broadcasts / total broadcasts);
- round counts for the consensus layers, to check the "always one
  round" observations of Section 4.3.

Every stack owns one :class:`StackStats`, and each protocol happening is
one ``record_*`` call on it: the call bumps the counters and, only when
something subscribed to that kind, hands one ``(process, kind, path,
detail)`` event to each subscriber -- the tracer, the metrics subscriber
(:mod:`repro.obs.stack_metrics`) or the invariant checker.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import InitVar, dataclass, field, fields
from typing import Any, Callable, Collection

from repro.core import trace
from repro.core.wire import Path

#: Called as ``subscriber(process, kind, path, detail)`` (*detail* is
#: shared, never mutate it); also has ``rebind(clock=None,
#: incarnation=None)``, called when a restart carries it to a new stack.
Subscriber = Callable[[int, str, Path, dict], None]


class _Listeners:
    """The per-kind subscriber table: one tuple per kind (``send``,
    ``batch_receive``, ...), so a record call nobody listens to costs one
    truth test.  Slots keep it off the counters' attribute dict."""

    __slots__ = tuple(kind.replace("-", "_") for kind in trace.KINDS)


def _accumulate_fields(target, source) -> None:
    """Merge *source*'s counters into *target* by field introspection:
    ``int`` fields add, ``Counter`` fields update, anything else (per-
    instance fields like ``rejoin_time_s``) is left alone.  A counter
    added to the dataclass is merged automatically -- the hand-maintained
    name lists this replaces silently dropped new fields."""
    for f in fields(target):
        mine = getattr(target, f.name)
        theirs = getattr(source, f.name)
        if isinstance(mine, Counter):
            mine.update(theirs)
        elif isinstance(mine, bool):
            continue  # flags are state, not accumulable counts
        elif isinstance(mine, int):
            setattr(target, f.name, mine + theirs)


#: Purpose tag for broadcasts that carry application payload
#: (atomic-broadcast AB_MSG transmissions).
PURPOSE_PAYLOAD = "payload"
#: Purpose tag for broadcasts executed on behalf of an agreement
#: (AB_VECT transmissions and everything inside a consensus subtree).
PURPOSE_AGREEMENT = "agreement"
#: Default purpose for instances created directly by the application.
PURPOSE_APP = "app"


@dataclass
class StackStats:
    """Mutable counters for one process's stack, plus its subscribers.

    Args:
        process: id stamped into every event handed to subscribers.
    """

    process: InitVar[int] = 0
    frames_sent: int = 0
    frames_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    # Batch containers opened on receive (the runtimes' link flushes
    # build them).  frames_sent/received keep counting *logical* protocol
    # frames, so they stay symmetric across the group whether or not
    # frames ride inside containers.
    batches_received: int = 0
    frames_decoalesced: int = 0
    dropped: Counter = field(default_factory=Counter)
    broadcasts: Counter = field(default_factory=Counter)
    consensus_rounds: Counter = field(default_factory=Counter)
    decisions: Counter = field(default_factory=Counter)
    ooc_stored: int = 0
    ooc_drained: int = 0
    ooc_evicted: int = 0
    ooc_purged: int = 0
    # Flood defense (misbehavior ledger, shedding, backpressure).
    misbehavior_reports: int = 0
    sends_shed: int = 0
    backpressure_signals: int = 0

    def __post_init__(self, process: int) -> None:
        self.process = process
        #: ``(subscriber, kinds)`` pairs; ``kinds`` None means every kind.
        self.subscriptions: list[tuple[Subscriber, frozenset[str] | None]] = []
        self._on = _Listeners()
        self._route()

    def subscribe(self, subscriber: Subscriber, kinds: Collection[str] | None = None) -> None:
        """Hand *subscriber* every event of *kinds* (default: all kinds)."""
        self.subscriptions.append((subscriber, None if kinds is None else frozenset(kinds)))
        self._route()

    def _route(self) -> None:
        for kind in trace.KINDS:
            listeners = tuple(s for s, only in self.subscriptions if only is None or kind in only)
            setattr(self._on, kind.replace("-", "_"), listeners)

    def _fan(self, listeners: tuple, kind: str, path: Path, detail: dict[str, Any]) -> None:
        process = self.process
        for listener in listeners:
            listener(process, kind, path, detail)

    def record_send(self, nbytes: int, path: Path = (), dest=None, mtype=None) -> None:
        self.frames_sent += 1
        self.bytes_sent += nbytes
        if self._on.send:
            detail = {"dest": dest, "mtype": mtype, "size": nbytes}
            self._fan(self._on.send, trace.KIND_SEND, path, detail)

    def record_send_all(self, nbytes: int, path: Path, dests: range, mtype: int) -> None:
        """One frame sent to each of *dests* (a broadcast encodes once)."""
        self.frames_sent += len(dests)
        self.bytes_sent += nbytes * len(dests)
        if self._on.send:
            for dest in dests:
                detail = {"dest": dest, "mtype": mtype, "size": nbytes}
                self._fan(self._on.send, trace.KIND_SEND, path, detail)

    def record_receive(self, nbytes: int, path: Path = (), src=None, mtype=None) -> None:
        """One frame arrived (a frame that failed to parse is recorded
        with an empty path and no mtype, then dropped)."""
        self.frames_received += 1
        self.bytes_received += nbytes
        if self._on.receive:
            detail = {"src": src, "mtype": mtype, "size": nbytes}
            self._fan(self._on.receive, trace.KIND_RECEIVE, path, detail)

    def record_batch_received(self, frames: int, src=None) -> None:
        """Count one incoming batch carrying *frames* frames."""
        self.batches_received += 1
        self.frames_decoalesced += frames
        if self._on.batch_receive:
            detail = {"src": src, "frames": frames}
            self._fan(self._on.batch_receive, trace.KIND_BATCH_RECEIVE, (), detail)

    def record_drop(self, reason: str, path: Path = (), src=None) -> None:
        self.dropped[reason] += 1
        if self._on.drop:
            self._fan(self._on.drop, trace.KIND_DROP, path, {"src": src, "reason": reason})

    def record_shed(self, dest: int, frames: int, queued: int) -> None:
        """The send queue toward *dest* shed *frames* frames, *queued* stay."""
        self.sends_shed += frames
        if self._on.shed:
            detail = {"dest": dest, "frames": frames, "queued": queued}
            self._fan(self._on.shed, trace.KIND_SHED, (), detail)

    def record_ooc(self, path: Path, src: int) -> None:
        """One frame parked out of context."""
        self.ooc_stored += 1
        if self._on.ooc:
            self._fan(self._on.ooc, trace.KIND_OOC, path, {"src": src})

    def record_evict(self, path: Path, src: int) -> None:
        """One parked frame evicted: its sender *src* was at its quota."""
        self.ooc_evicted += 1
        if self._on.quota:
            self._fan(self._on.quota, trace.KIND_QUOTA, path, {"src": src})

    def record_create(self, path: Path, protocol: str) -> None:
        if self._on.create:
            self._fan(self._on.create, trace.KIND_CREATE, path, {"protocol": protocol})

    def record_destroy(self, path: Path, protocol: str) -> None:
        if self._on.destroy:
            self._fan(self._on.destroy, trace.KIND_DESTROY, path, {"protocol": protocol})

    def record_deliver(self, path: Path, protocol: str, event: Any) -> None:
        """An instance delivered *event*; a delivery that names a message
        (an atomic-broadcast delivery's ``msg_id``) carries it as ``msg``
        and its payload, by reference, as ``payload``."""
        if self._on.deliver:
            detail = {"protocol": protocol}
            msg_id = getattr(event, "msg_id", None)
            if msg_id is not None:
                detail["msg"] = msg_id
                detail["payload"] = event.payload
            self._fan(self._on.deliver, trace.KIND_DELIVER, path, detail)

    def record_broadcast(self, kind: str, purpose: str, path: Path = (), size: int = 0) -> None:
        """Count one locally initiated broadcast of *kind* ('rb' or 'eb')
        carrying a *size*-byte payload."""
        self.broadcasts[(kind, purpose)] += 1
        if self._on.broadcast:
            detail = {"protocol": kind, "purpose": purpose, "size": size}
            self._fan(self._on.broadcast, trace.KIND_BROADCAST, path, detail)

    def record_round(self, path: Path, round_number: int) -> None:
        """A binary-consensus round started."""
        if self._on.round:
            self._fan(self._on.round, trace.KIND_ROUND, path, {"round": round_number})

    def record_step(self, path: Path, round_number: int, step: int) -> None:
        """A binary-consensus step's quorum was reached (the step ended)."""
        if self._on.step:
            self._fan(self._on.step, trace.KIND_STEP, path, {"round": round_number, "step": step})

    def record_coin(self, path: Path, round_number: int, value: int) -> None:
        """A binary-consensus round's coin was tossed."""
        if self._on.coin:
            self._fan(self._on.coin, trace.KIND_COIN, path, {"round": round_number, "value": value})

    def record_decision(self, protocol: str, rounds: int, path: Path = (), value=None) -> None:
        """Record that a consensus instance decided *value* after *rounds* rounds."""
        self.decisions[protocol] += 1
        self.consensus_rounds[(protocol, rounds)] += 1
        if self._on.decide:
            self._fan(self._on.decide, trace.KIND_DECIDE, path, {"value": value, "round": rounds})

    def record_submit(self, path: Path, rbid: int) -> None:
        """This process submitted message *rbid* to atomic broadcast."""
        if self._on.submit:
            self._fan(self._on.submit, trace.KIND_SUBMIT, path, {"rbid": rbid})

    def record_backpressure(self, path: Path, pending: int, cap: int) -> None:
        self.backpressure_signals += 1
        if self._on.backpressure:
            detail = {"pending": pending, "cap": cap}
            self._fan(self._on.backpressure, trace.KIND_BACKPRESSURE, path, detail)

    def record_agreement(self, path: Path, round_number: int) -> None:
        """An atomic-broadcast round proposed to its agreement."""
        if self._on.agreement:
            self._fan(self._on.agreement, trace.KIND_AGREEMENT, path, {"round": round_number})

    def record_agreed(self, path: Path, round_number: int, outcome: str) -> None:
        """An AB round applied its agreement's ``"batch"``/``"empty"`` outcome."""
        if self._on.agreed:
            detail = {"round": round_number, "outcome": outcome}
            self._fan(self._on.agreed, trace.KIND_AGREED, path, detail)

    # -- derived quantities (Figure 7) ----------------------------------------

    def total_broadcasts(self) -> int:
        return sum(self.broadcasts.values())

    def broadcasts_for(self, purpose: str) -> int:
        return sum(count for (_, p), count in self.broadcasts.items() if p == purpose)

    def agreement_cost(self) -> float:
        """Fraction of all broadcasts executed for agreement (Figure 7)."""
        total = self.total_broadcasts()
        if total == 0:
            return 0.0
        return self.broadcasts_for(PURPOSE_AGREEMENT) / total

    def max_rounds(self, protocol: str) -> int:
        """Largest round count any instance of *protocol* needed."""
        rounds = [r for (p, r) in self.consensus_rounds if p == protocol]
        return max(rounds, default=0)

    def merge(self, other: "StackStats") -> None:
        """Accumulate *other* into this object (for group-wide totals)."""
        _accumulate_fields(self, other)


@dataclass
class RecoveryStats:
    """Counters of the checkpoint / state-transfer subsystem
    (:mod:`repro.recovery`), one per :class:`~repro.recovery.RecoveryManager`.

    The benchmark comparisons (time-to-rejoin, bytes transferred vs.
    full replay) read these; tests assert on them exactly.
    """

    # -- checkpoint duty -------------------------------------------------------
    checkpoints_taken: int = 0
    checkpoints_stable: int = 0
    attestations_sent: int = 0
    attestations_accepted: int = 0
    attestations_rejected: int = 0
    digest_divergence: int = 0
    log_truncations: int = 0

    # -- serving peers ---------------------------------------------------------
    state_requests_served: int = 0
    payloads_served: int = 0
    state_bytes_sent: int = 0

    # -- recovering ------------------------------------------------------------
    state_requests_sent: int = 0
    state_responses_received: int = 0
    certificates_rejected: int = 0
    snapshots_installed: int = 0
    suffix_entries_applied: int = 0
    buffered_applied: int = 0
    payload_requests_sent: int = 0
    payloads_injected: int = 0
    state_bytes_received: int = 0
    rejoin_time_s: float | None = None

    def merge(self, other: "RecoveryStats") -> None:
        """Accumulate *other* into this object (for group-wide totals).

        ``rejoin_time_s`` is per-replica, not a sum, and stays untouched.
        """
        _accumulate_fields(self, other)

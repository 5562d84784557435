"""Statistics collected by a running stack.

The evaluation section of the paper reports three kinds of quantities
that must be observable from outside the protocols:

- frame counts and byte counts (network load, IPSec overhead);
- *broadcast* counts split by purpose, for Figure 7's "relative cost of
  agreement" (agreement broadcasts / total broadcasts);
- round counts for the consensus layers, to check the "always one
  round" observations of Section 4.3.

Every stack owns one :class:`StackStats`; protocol instances report into
it through narrow methods so tests can assert on exact counters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields


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
    """Mutable counters for one process's stack."""

    frames_sent: int = 0
    frames_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    # Frame coalescing (batching fast path).  frames_sent/received keep
    # counting *logical* protocol frames, so they stay symmetric across
    # the group whether or not frames ride inside batch containers.
    batches_sent: int = 0
    frames_coalesced: int = 0
    batches_received: int = 0
    frames_decoalesced: int = 0
    header_bytes_saved: int = 0
    dropped: Counter = field(default_factory=Counter)
    broadcasts: Counter = field(default_factory=Counter)
    consensus_rounds: Counter = field(default_factory=Counter)
    decisions: Counter = field(default_factory=Counter)
    ooc_stored: int = 0
    ooc_drained: int = 0
    ooc_evicted: int = 0
    ooc_purged: int = 0
    # Flood defense (misbehavior ledger, quarantine, quotas, shedding).
    ooc_quota_evictions: int = 0
    misbehavior_reports: int = 0
    quarantine_entries: int = 0
    sends_shed: int = 0
    backpressure_signals: int = 0

    # -- recording -----------------------------------------------------------

    def record_send(self, nbytes: int) -> None:
        self.frames_sent += 1
        self.bytes_sent += nbytes

    def record_receive(self, nbytes: int) -> None:
        self.frames_received += 1
        self.bytes_received += nbytes

    def record_drop(self, reason: str) -> None:
        self.dropped[reason] += 1

    def record_batch_sent(self, frames: int, header_bytes_saved: int) -> None:
        """Count one outgoing batch coalescing *frames* frames."""
        self.batches_sent += 1
        self.frames_coalesced += frames
        self.header_bytes_saved += header_bytes_saved

    def record_batch_received(self, frames: int) -> None:
        """Count one incoming batch carrying *frames* frames."""
        self.batches_received += 1
        self.frames_decoalesced += frames

    def record_broadcast(self, kind: str, purpose: str) -> None:
        """Count one locally initiated broadcast of *kind* ('rb' or 'eb')."""
        self.broadcasts[(kind, purpose)] += 1

    def record_decision(self, protocol: str, rounds: int) -> None:
        """Record that a consensus instance decided after *rounds* rounds."""
        self.decisions[protocol] += 1
        self.consensus_rounds[(protocol, rounds)] += 1

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

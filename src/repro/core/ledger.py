"""Per-peer misbehavior accounting and quarantine.

The paper's protocols tolerate Byzantine *values* by construction; what
they do not bound is Byzantine *volume* -- a corrupt peer spraying
malformed frames, bad MACs or out-of-context floods makes every correct
process pay decode, hashing and parking costs forever.  The ledger keeps
one score per peer, fed by the stack's validation paths:

- wire decode failures (malformed frame/batch, over-deep nesting);
- protocol validation rejections (``ProtocolViolationError`` at demux);
- MAC failures (TCP channel HMAC, echo-broadcast matrix columns);
- resource-quota violations (OOC per-peer quota, AB message window).

Crossing ``GroupConfig.quarantine_threshold`` moves the peer into
**quarantine**: its channel units are dropped at demultiplex, before any
decode or protocol work.  Quarantine is probational -- after
:data:`PROBATION_S` the peer is released with its score halved,
so a correct peer accused under transient corruption (a flaky link
flipping bits, a partially-written restart) recovers; a true flooder
re-offends and is re-quarantined immediately.

This layer diverges from the paper (which never drops traffic from a
group member); the divergence and its safety argument are documented in
DESIGN.md section 8.  It is **off by default** (threshold 0): scores
are always recorded, but no peer is ever dropped unless the operator
opts in.

Attribution rule: only ever score the *link-authenticated* source of a
frame (``mbuf.src`` / the TCP peer the channel authenticated).  Scoring
identities named inside payloads would let a corrupt peer slander honest
ones into quarantine.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import GroupConfig

#: Offense kinds and their default score weights.  Heavier weights for
#: offenses that are unambiguous misbehavior; light weights where an
#: unlucky-but-honest peer could plausibly trip the check.
OFFENSE_WEIGHTS: dict[str, float] = {
    "malformed-frame": 1.0,
    "malformed-batch": 1.0,
    "batch-too-deep": 1.0,
    "protocol-violation": 1.0,
    "mac-failure": 2.0,
    "ooc-quota": 0.25,
    "msg-window": 0.5,
}

DEFAULT_WEIGHT = 1.0

#: Seconds a quarantined peer stays muted before probational release.
PROBATION_S = 5.0


@dataclass
class PeerRecord:
    """Running misbehavior state for one peer."""

    score: float = 0.0
    offenses: Counter = field(default_factory=Counter)
    quarantined_until: float = 0.0
    quarantines: int = 0

    @property
    def ever_quarantined(self) -> bool:
        return self.quarantines > 0


class MisbehaviorLedger:
    """Per-peer scores, quarantine entry and probational release.

    Args:
        config: group description; supplies ``quarantine_threshold``
            (0 disables quarantine -- scores are still kept).
        clock: time source for probation; the stack injects its own.
    """

    def __init__(self, config: GroupConfig, clock: Callable[[], float] | None = None):
        self.threshold = config.quarantine_threshold
        self.clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self._records: dict[int, PeerRecord] = {}
        self.reports = 0
        self.quarantines_entered = 0
        self.quarantines_released = 0
        #: Optional hook ``(src, record)`` fired on probational release.
        self.on_release: Callable[[int, PeerRecord], None] | None = None

    @property
    def enabled(self) -> bool:
        """True when quarantine can actually trigger."""
        return self.threshold > 0

    def record(self, src: int) -> PeerRecord:
        rec = self._records.get(src)
        if rec is None:
            rec = self._records[src] = PeerRecord()
        return rec

    def score(self, src: int) -> float:
        rec = self._records.get(src)
        return rec.score if rec is not None else 0.0

    def offenses(self, src: int) -> Counter:
        rec = self._records.get(src)
        return Counter(rec.offenses) if rec is not None else Counter()

    def report(self, src: int, offense: str, weight: float | None = None) -> bool:
        """Score one offense by *src*; returns True if this report moved
        the peer into quarantine."""
        self.reports += 1
        rec = self.record(src)
        rec.score += OFFENSE_WEIGHTS.get(offense, DEFAULT_WEIGHT) if weight is None else weight
        rec.offenses[offense] += 1
        if (
            self.enabled
            and rec.quarantined_until <= self.clock()
            and rec.score >= self.threshold
        ):
            rec.quarantined_until = self.clock() + PROBATION_S
            rec.quarantines += 1
            self.quarantines_entered += 1
            return True
        return False

    def quarantined(self, src: int) -> bool:
        """True while *src* is quarantined.  A peer whose probation has
        expired is released on the spot with its score halved."""
        if not self.enabled:
            return False
        rec = self._records.get(src)
        if rec is None or not rec.quarantined_until:
            return False
        if self.clock() < rec.quarantined_until:
            return True
        # Probation: release, halve the score so a reformed (or falsely
        # accused) peer stays out, while a persistent flooder re-crosses
        # the remaining threshold gap almost immediately.
        rec.quarantined_until = 0.0
        rec.score /= 2.0
        self.quarantines_released += 1
        if self.on_release is not None:
            self.on_release(src, rec)
        return False

    def quarantined_ids(self) -> list[int]:
        """Peers currently in quarantine (does not trigger releases)."""
        now = self.clock()
        return sorted(
            src
            for src, rec in self._records.items()
            if rec.quarantined_until > now
        )

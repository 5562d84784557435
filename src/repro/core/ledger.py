"""Per-peer misbehavior accounting.

The paper's protocols tolerate Byzantine *values* by construction; what
they do not bound is Byzantine *volume* -- a corrupt peer spraying
malformed frames, bad MACs or out-of-context floods makes every correct
process pay decode, hashing and parking costs.  The ledger keeps one
score per peer, fed by the stack's validation paths:

- wire decode failures (malformed frame or batch, a nested batch);
- protocol validation rejections (``ProtocolViolationError`` at demux);
- MAC failures (TCP channel HMAC, echo-broadcast matrix columns);
- resource-quota violations (OOC per-peer quota, AB message window).

The ledger scores and never drops: like the paper, the stack processes
every group member's traffic, and the bounds that contain a flooder
are the resource quotas themselves (DESIGN.md section 8).

Attribution rule: only ever score the *link-authenticated* source of a
frame (``mbuf.src`` / the TCP peer the channel authenticated).  Scoring
identities named inside payloads would let a corrupt peer slander
honest ones.
"""

from __future__ import annotations

from collections import Counter

#: Offense kinds and their default score weights.  Heavier weights for
#: offenses that are unambiguous misbehavior; light weights where an
#: unlucky-but-honest peer could plausibly trip the check.
OFFENSE_WEIGHTS: dict[str, float] = {
    "malformed-frame": 1.0,
    "malformed-batch": 1.0,
    "protocol-violation": 1.0,
    "mac-failure": 2.0,
    "ooc-quota": 0.25,
    "msg-window": 0.5,
}

DEFAULT_WEIGHT = 1.0


class MisbehaviorLedger:
    """Per-peer misbehavior scores and offense counts."""

    def __init__(self) -> None:
        self._scores: dict[int, float] = {}
        self._offenses: dict[int, Counter] = {}

    def score(self, src: int) -> float:
        return self._scores.get(src, 0.0)

    def offenses(self, src: int) -> Counter:
        return Counter(self._offenses.get(src, ()))

    def report(self, src: int, offense: str, weight: float | None = None) -> None:
        """Score one offense by *src*."""
        if weight is None:
            weight = OFFENSE_WEIGHTS.get(offense, DEFAULT_WEIGHT)
        self._scores[src] = self._scores.get(src, 0.0) + weight
        self._offenses.setdefault(src, Counter())[offense] += 1

"""Concrete adversarial protocol variants.

Each class subclasses an honest protocol and overrides only its
*adversary hooks* -- the honest message flow (thresholds, child
instances, bookkeeping) is inherited, which is exactly what a smart
attacker does: stay syntactically correct so messages pass validation,
while steering values.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from repro.core.atomic_broadcast import (
    MAX_BATCH_MSGS,
    AtomicBroadcast,
    encode_batches,
    parse_batches,
)
from repro.core.binary_consensus import BinaryConsensus
from repro.core.echo_broadcast import EchoBroadcast
from repro.core.mbuf import Mbuf
from repro.core.multivalued_consensus import MultiValuedConsensus
from repro.core.reliable_broadcast import (
    MSG_ECHO,
    MSG_INIT,
    MSG_READY,
    READY_HEAD,
    ReliableBroadcast,
)
from repro.core.stack import ControlBlock, ProtocolFactory
from repro.core.wire import encode_value
from repro.crypto.hashing import HASH_LEN, hash_bytes


def _always_zero_step(self: Any, round_number: int, step: int, computed: Any) -> Any:
    return 0


def _random_bit_step(self: Any, round_number: int, step: int, computed: Any) -> Any:
    return self.stack.rng.getrandbits(1)


def _swallow_propose(self: Any, value: int) -> None:
    self.proposal = value  # swallow: never broadcast, never answer


#: (tag, honest base class) -> derived adversarial variant.  The bc
#: attacks override only the engine-agnostic adversary hooks
#: (``_step_value`` / ``propose``), so the same attack applies to any
#: registered engine -- the faultloads below derive the variant from
#: whatever class the target factory resolves for "bc".  Memoized so one
#: (tag, base) pair always yields the *same* class object (faultloads
#: may be applied once per process).
_BC_VARIANTS: dict[tuple[str, type], type] = {}

_BC_ATTACKS: dict[str, dict[str, Any]] = {
    "always-zero": {"_step_value": _always_zero_step},
    "random-bit": {"_step_value": _random_bit_step},
    "crash-on-propose": {"propose": _swallow_propose},
}


def bc_variant(tag: str, base: type) -> type:
    """The *tag* attack grafted onto binary-consensus engine *base*."""
    key = (tag, base)
    variant = _BC_VARIANTS.get(key)
    if variant is None:
        variant = type(
            f"{tag.title().replace('-', '')}{base.__name__}", (base,), dict(_BC_ATTACKS[tag])
        )
        _BC_VARIANTS[key] = variant
    return variant


class AlwaysZeroBinaryConsensus(BinaryConsensus):
    """Always proposes and pushes 0, trying to impose a zero decision.

    Note that pushing 0 at *every* step would often be filtered by the
    congruence validation of correct processes; the attack stays within
    the accepted envelope whenever possible by lying only at the value
    level (the paper: "it always proposes zero").
    """

    _step_value = _always_zero_step


class RandomBitBinaryConsensus(BinaryConsensus):
    """Broadcasts random bits at every step -- pure noise injection."""

    _step_value = _random_bit_step


class CrashOnProposeBinaryConsensus(BinaryConsensus):
    """Goes mute the moment consensus starts (a targeted omission fault)."""

    propose = _swallow_propose


# Attacks on the default engine resolve to the named classes above (kept
# for importers and trace readability), not to fresh synthesized types.
_BC_VARIANTS[("always-zero", BinaryConsensus)] = AlwaysZeroBinaryConsensus
_BC_VARIANTS[("random-bit", BinaryConsensus)] = RandomBitBinaryConsensus
_BC_VARIANTS[("crash-on-propose", BinaryConsensus)] = CrashOnProposeBinaryConsensus


class DefaultValueMultiValuedConsensus(MultiValuedConsensus):
    """Pushes the default value ⊥ in both INIT and VECT (Section 4.2),
    trying to force correct processes to decide ⊥."""

    def _init_value(self, computed: Any) -> Any:
        return None

    def _vect_payload(self, value: Any, justification: list[Any]) -> list[Any]:
        return [None, None]


# -- flooding (resource-exhaustion) strategies --------------------------------
#
# The value-level attackers above stay inside the protocols' envelopes;
# these instead attack the *resources* of correct processes -- OOC table
# slots, decode CPU, bandwidth -- which is what the flood-defense layer
# (per-peer quotas, misbehavior ledger, bounded queues) exists to absorb.


class OocFlooderAtomicBroadcast(AtomicBroadcast):
    """Sprays frames for instances that will never exist.

    Every real broadcast and child event is accompanied by a burst of
    ``flood_burst`` frames to ghost paths under the AB session; correct
    receivers cannot resolve them (``accept_orphan`` refuses) and must
    park each one out-of-context.  Against the seed's global-FIFO OOC
    eviction this pushes *honest* parked messages out of the table;
    against per-sender fair eviction only the flooder's entries churn.
    """

    flood_burst = 8

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._flood_counter = 0

    def _flood(self) -> None:
        for _ in range(self.flood_burst):
            self._flood_counter += 1
            ghost = self.path + ("ghost", self._flood_counter)
            self.stack.broadcast_frame(ghost, 0, b"flood")

    def broadcast(self, payload: Any) -> Any:
        result = super().broadcast(payload)
        self._flood()
        return result

    def child_event(self, child: ControlBlock, event: Any) -> None:
        super().child_event(child, event)
        self._flood()


class DuplicateStormReliableBroadcast(ReliableBroadcast):
    """Repeats every outgoing rb frame ``storm_factor`` times.

    Duplicates are protocol-harmless (votes count once per source, and
    PAYLOADs once per source) but each copy still costs every receiver
    decode CPU and bandwidth -- a pure amplification attack on the
    channel.  INIT, ECHO and READY leave through ``send_all_raw``, the
    unicast PAYLOAD push through ``send_raw``; both repeat.
    """

    storm_factor = 4

    def send_all_raw(self, mtype: int, raw: bytes) -> None:
        for _ in range(self.storm_factor):
            super().send_all_raw(mtype, raw)

    def send_raw(self, dest: int, mtype: int, raw: bytes) -> None:
        for _ in range(self.storm_factor):
            super().send_raw(dest, mtype, raw)


#: Forged votes :class:`DigestForgerReliableBroadcast` cycles through, per
#: vote type: a digest nobody's payload has, a short ``bytes``, a
#: non-``bytes`` value, and the correct digest (a READY sent the moment
#: the INIT arrives).  ECHOs add a fifth: the full payload, as the
#: paper's ECHO carried it.
VOTE_FORGERY_KINDS = {MSG_ECHO: 5, MSG_READY: 4}
#: The forgeries that are malformed: correct processes drop and score them.
MALFORMED_VOTE_KINDS = {MSG_ECHO: (1, 2, 4), MSG_READY: (1, 2)}
_CORRECT_DIGEST = 3
_PAYLOAD_ECHO = 4


class DigestForgerReliableBroadcast(ReliableBroadcast):
    """Sends every kind of ECHO and READY the digest rule has to sort out.

    The stack's ECHOs take turns, and so do its READYs: a vote for
    H(x) for an *x* nobody sent; a ``bytes`` one byte short of a
    digest; the digest as an int; and the correct digest -- for a READY,
    sent the moment the INIT arrives, before this process's ECHO (or at
    the usual trigger if the INIT comes late).  Every fifth ECHO carries
    the payload itself.  The short, int and payload votes are malformed
    and must be dropped and scored; the others are well formed and must
    not be.  Everything else is honest.

    ``sent`` counts the votes sent per ``(mtype, kind)``, across the
    stack's instances; :func:`digest_forge_faultload` gives every stack
    it builds a subclass with a tally of its own.
    """

    sent: Counter = Counter()

    def _next_kind(self, mtype: int) -> int:
        kinds = VOTE_FORGERY_KINDS[mtype]
        return sum(self.sent[(mtype, kind)] for kind in range(kinds)) % kinds

    def input(self, mbuf: Mbuf) -> None:
        if (
            mbuf.mtype == MSG_INIT
            and mbuf.src == self.sender
            and not (self._init_seen or self._ready_sent)
            and self._next_kind(MSG_READY) == _CORRECT_DIGEST
        ):
            self._ready_sent = True
            self._send_ready(hash_bytes(mbuf.raw_payload))
        super().input(mbuf)

    def _forged(self, mtype: int, digest: bytes, raw: bytes = b"") -> bytes:
        kind = self._next_kind(mtype)
        self.sent[(mtype, kind)] += 1
        if kind == 0:
            return READY_HEAD + hash_bytes(b"nobody sent this", digest)
        if kind == 1:
            return encode_value(digest[1:])
        if kind == 2:
            return encode_value(int.from_bytes(digest, "big"))
        if kind == _PAYLOAD_ECHO:
            return raw  # an ECHO carrying the INIT it names
        return READY_HEAD + digest

    def _send_echo(self, digest: bytes, raw: bytes) -> None:
        self.send_all_raw(MSG_ECHO, self._forged(MSG_ECHO, digest, raw))

    def _send_ready(self, digest: bytes) -> None:
        self.send_all_raw(MSG_READY, self._forged(MSG_READY, digest))


class InitOmitReliableBroadcast(ReliableBroadcast):
    """A sender whose INIT reaches only itself and the 2f processes
    after it (in pid order, wrapping), and never the rest.

    An omitted process never echoes, so it can obtain the payload only
    from the PAYLOAD pushes of the echoers that deliver.  ``omitted``
    counts the INITs withheld, across the stack's instances;
    :func:`init_omit_faultload` gives every stack it builds a subclass
    with a tally of its own.  Everything else is honest.
    """

    omitted: Counter = Counter()

    def send_all_raw(self, mtype: int, raw: bytes) -> None:
        if mtype != MSG_INIT:
            super().send_all_raw(mtype, raw)
            return
        n = self.config.num_processes
        reached = 1 + 2 * self.config.num_faulty
        for offset in range(n):
            dest = (self.me + offset) % n
            if offset < reached:
                self.send_raw(dest, MSG_INIT, raw)
            else:
                self.omitted[dest] += 1


class BadMacEchoBroadcast(EchoBroadcast):
    """An echo-broadcast sender whose MAT columns carry garbage MACs.

    Rows are garbled as the VECTs arrive, so every column this process
    distributes (for its own broadcasts) fails the receivers' ``f + 1``
    MAC quorum: nobody delivers, and every correct receiver charges the
    sender a ``mac-failure`` in its misbehavior ledger.  Only sender-side
    state is corrupted -- the attribution rule means a corrupt *relay*
    could never pin this on an honest sender.
    """

    def _on_vect(self, mbuf: Mbuf) -> None:
        if self.me == self.sender and self._valid_vector(mbuf.payload):
            for index in range(len(mbuf.payload)):
                mbuf.payload[index] = b"\x00" * HASH_LEN
        super()._on_vect(mbuf)


#: rbid offset of the forger's ghost ids: far above anything broadcast.
GHOST_RBID = 1 << 40

#: Forged AB_VECT kinds :class:`VectForgerAtomicBroadcast` cycles through.
FORGERY_KINDS = 5


class VectForgerAtomicBroadcast(AtomicBroadcast):
    """Spells its AB_VECTs every way the batch-list parser must refuse,
    and vouches for batches nobody broadcast.

    Each round's vector is one forgery, cycling through: the honest
    entries with senders 0 and 1 spelled as bools (``True == 1`` in
    Python, not on the wire); every entry twice; a ghost batch one id
    over ``MAX_BATCH_MSGS``; the honest set plus one ghost batch per
    sender; and one ghost batch of exactly ``MAX_BATCH_MSGS`` ids, the
    longest a batch may be.  The first three must be dropped as
    malformed.  Ghost batches parse, but only this process vouches for
    them, so they never reach ``f + 1`` support.
    """

    def _vect_ids(self, computed: list[list[int]]) -> Any:
        kind = self.round % FORGERY_KINDS
        if kind == 0:
            return [[bool(e[0]) if e[0] < 2 else e[0], *e[1:]] for e in computed] or [[True, 0, 0]]
        if kind == 1:
            return [r for r in computed for _ in range(2)] or [[0, 1, 1], [0, 1, 1]]
        if kind == 2:
            return [[self.me, GHOST_RBID, GHOST_RBID + MAX_BATCH_MSGS]]
        if kind == 3:
            ghosts = [(s, GHOST_RBID + s, GHOST_RBID + s) for s in self.config.process_ids]
            return encode_batches(ghosts + parse_batches(computed, self.config.process_ids))
        return [[self.me, GHOST_RBID, GHOST_RBID + MAX_BATCH_MSGS - 1]]


#: Rounds in which :class:`BatchOverlapAtomicBroadcast` sends its batches.
OVERLAP_ROUNDS = 6


class BatchOverlapAtomicBroadcast(AtomicBroadcast):
    """Reliably broadcasts batches that overlap, and batches of the
    wrong length.

    In each of its first ``OVERLAP_ROUNDS`` agreement rounds it takes
    five fresh ids ``a .. a+4`` and broadcasts three batches: ``(a,
    a+1)`` and ``(a+1, a+2)``, which share id ``a+1`` with conflicting
    payloads, and ``(a+3, a+4)`` holding one payload instead of two.
    Correct processes must deliver each shared id once, with the payload
    of whichever batch was decided first, and never vouch for the short
    one.  Everything else is honest.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._overlap_rounds: set[int] = set()

    def child_event(self, child: ControlBlock, event: Any) -> None:
        super().child_event(child, event)
        if self.destroyed or self.round in self._overlap_rounds:
            return
        if len(self._overlap_rounds) >= OVERLAP_ROUNDS:
            return
        self._overlap_rounds.add(self.round)
        a = self._next_rbid
        self._next_rbid += 5
        for first, last, payloads in (
            (a, a + 1, [b"left %d" % a, b"left %d" % (a + 1)]),
            (a + 1, a + 2, [b"right %d" % (a + 1), b"right %d" % (a + 2)]),
            (a + 3, a + 4, [b"short %d" % (a + 3)]),
        ):
            rb = self._open_msg_instance(self.me, first, last)
            rb.broadcast(payloads)  # type: ignore[attr-defined]


def byzantine_paper_faultload(factory: ProtocolFactory) -> ProtocolFactory:
    """The exact Byzantine faultload of Section 4.2: zero at the binary
    consensus layer, ⊥ at the multi-valued consensus layer."""
    return factory.override(
        "bc", bc_variant("always-zero", factory.resolve("bc"))
    ).override("mvc", DefaultValueMultiValuedConsensus)


def random_noise_faultload(factory: ProtocolFactory) -> ProtocolFactory:
    """A noisier attacker: random bits into every binary consensus step."""
    return factory.override("bc", bc_variant("random-bit", factory.resolve("bc")))


def crash_consensus_faultload(factory: ProtocolFactory) -> ProtocolFactory:
    """An omission attacker that participates in broadcasts but never in
    consensus."""
    return factory.override("bc", bc_variant("crash-on-propose", factory.resolve("bc")))


def ooc_flood_faultload(factory: ProtocolFactory) -> ProtocolFactory:
    """A flooder spraying out-of-context frames at the whole group."""
    return factory.override("ab", OocFlooderAtomicBroadcast)


def duplicate_storm_faultload(factory: ProtocolFactory) -> ProtocolFactory:
    """An amplifier repeating every reliable-broadcast frame."""
    return factory.override("rb", DuplicateStormReliableBroadcast)


def bad_mac_faultload(factory: ProtocolFactory) -> ProtocolFactory:
    """An echo-broadcast sender distributing unverifiable MAC columns."""
    return factory.override("eb", BadMacEchoBroadcast)


def vect_forge_faultload(factory: ProtocolFactory) -> ProtocolFactory:
    """An atomic broadcast participant whose AB_VECTs are forged."""
    return factory.override("ab", VectForgerAtomicBroadcast)


def batch_overlap_faultload(factory: ProtocolFactory) -> ProtocolFactory:
    """An atomic broadcast participant whose batches overlap or are short."""
    return factory.override("ab", BatchOverlapAtomicBroadcast)


def digest_forge_faultload(factory: ProtocolFactory) -> ProtocolFactory:
    """A reliable-broadcast participant whose ECHOs and READYs are
    forged, with a fresh ``sent`` tally."""
    forger = type(
        DigestForgerReliableBroadcast.__name__,
        (DigestForgerReliableBroadcast,),
        {"sent": Counter()},
    )
    return factory.override("rb", forger)


def init_omit_faultload(factory: ProtocolFactory) -> ProtocolFactory:
    """A reliable-broadcast sender whose INITs skip n-1-2f processes,
    with a fresh ``omitted`` tally."""
    omitter = type(
        InitOmitReliableBroadcast.__name__,
        (InitOmitReliableBroadcast,),
        {"omitted": Counter()},
    )
    return factory.override("rb", omitter)


#: Named faultloads, resolvable by :meth:`repro.net.faults.FaultPlan.with_byzantine`.
STRATEGIES: dict[str, Any] = {
    "paper": byzantine_paper_faultload,
    "noise": random_noise_faultload,
    "crash-consensus": crash_consensus_faultload,
    "ooc-flood": ooc_flood_faultload,
    "duplicate-storm": duplicate_storm_faultload,
    "bad-mac": bad_mac_faultload,
    "vect-forge": vect_forge_faultload,
    "digest-forge": digest_forge_faultload,
    "init-omit": init_omit_faultload,
    "batch-overlap": batch_overlap_faultload,
}

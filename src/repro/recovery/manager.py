"""The recovery manager: checkpoint duty, truncation and catch-up.

One :class:`RecoveryManager` wraps one replica's
:class:`~repro.apps.state_machine.ReplicatedStateMachine` and its
atomic broadcast.  It interposes on the delivery callback, so it owns
the replica's *position space*: the count of atomic broadcast
deliveries, junk included (junk is skipped by the state machine but
occupies a position in the total order at every correct replica, so
positions are deterministic group-wide).

Three phases:

- ``live`` -- normal duty: log each delivery, checkpoint every
  ``checkpoint_interval`` positions, broadcast an attestation, truncate
  the log once ``f + 1`` matching attestations make a checkpoint
  *stable*, and serve peers' state and payload requests.  (Protocol
  instances are not this layer's business: atomic broadcast reclaims
  them itself, at delivery and two rounds behind the agreement.)
- ``bootstrap`` -- a restarted replica requests state from all peers,
  installs the best certified checkpoint, replays the ``f + 1``-matched
  log suffix, and fast-forwards its atomic broadcast past every round
  any correct peer can have started.
- ``joining`` -- deliveries from the fast-forwarded broadcast are
  buffered while the replica fetches the remaining gap (up to the
  group's position at its join round) from peers; once the gap closes
  it anchors the broadcast's position base, drains the buffer and goes
  live.

Timers are poke-driven (the stack is sans-IO): the runtime calls
:meth:`RecoveryManager.poke` periodically; request waves carry their
own exponential backoff between :data:`REQUEST_BASE_S` and
:data:`REQUEST_MAX_S`.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any

from repro.apps.state_machine import Command, ReplicatedStateMachine
from repro.core.atomic_broadcast import AbDelivery, AtomicBroadcast, MsgId, parse_id_ranges
from repro.core.errors import ProtocolViolationError, WireFormatError
from repro.core.stack import Stack
from repro.core.stats import RecoveryStats
from repro.core.wire import Path, encode_value
from repro.crypto.mac import mac_vector, verify_mac
from repro.recovery.checkpoint import (
    Checkpoint,
    attestation_bytes,
    build_certificate,
    checkpoint_digest,
    parse_certificate,
    verify_certificate,
)
from repro.recovery.protocol import (
    M_CHECKPOINT,
    M_PAYLOAD_REQ,
    M_PAYLOAD_RESP,
    M_STATE_REQ,
    M_STATE_RESP,
    MAX_ENTRIES,
    MODE_BOOTSTRAP,
    MODE_TAIL,
)

PHASE_BOOTSTRAP = "bootstrap"
PHASE_JOINING = "joining"
PHASE_LIVE = "live"

#: Attestations for positions further than this many checkpoint windows
#: beyond anything we have seen are discarded (memory bound against a
#: corrupt replica minting arbitrary future checkpoints).
ATTEST_WINDOWS = 256

#: Local checkpoint records retained while awaiting stability.
MAX_RECORDS = 8

#: Agreement rounds a recovering replica fast-forwards *past* the most
#: advanced peer it heard from, so the join round is still in every
#: peer's future when its first AB_VECT goes out.
JOIN_MARGIN = 2

#: Backoff between state-transfer / payload-fetch request waves: it
#: starts at REQUEST_BASE_S and doubles per wave, capped at REQUEST_MAX_S.
REQUEST_BASE_S = 0.05
REQUEST_MAX_S = 1.0


class RecoveryManager:
    """Checkpoint / state-transfer policy for one replica.

    Args:
        stack: the replica's protocol stack.
        rsm: the replicated state machine to checkpoint and restore.
            Its ``apply_fn`` must treat unknown operations as
            deterministic no-ops (the catch-up path broadcasts a
            ``noop`` command to push agreement rounds forward).
        recovering: ``True`` on a replica restarted from nothing: it
            bootstraps from peers instead of assuming position 0 is the
            beginning of history.  Requires a freshly created stack and
            state machine.
        path: instance path of the recovery wire protocol; must be the
            same on every replica.
    """

    def __init__(
        self,
        stack: Stack,
        rsm: ReplicatedStateMachine,
        *,
        recovering: bool = False,
        path: Path = ("rec",),
    ):
        self._stack = stack
        self._rsm = rsm
        self._ab: AtomicBroadcast = rsm.ab
        self._cfg = stack.config
        self._interval = self._cfg.checkpoint_interval
        self.stats = RecoveryStats()
        self.protocol = stack.create("ckpt", tuple(path), manager=self)
        self._inner_deliver = self._ab.on_deliver
        self._ab.on_deliver = self._on_ab_deliver

        #: Next absolute delivery position (== deliveries applied so far).
        self._next_pos = 0
        #: Recent deliveries, junk included: ``(pos, sender, rbid, payload)``.
        #: Truncated at each stable checkpoint; this is what state and
        #: payload requests are served from.
        self._log: deque[tuple[int, int, int, Any]] = deque()
        self._records: dict[int, Checkpoint] = {}
        #: seq -> {attester -> (digest, mac vector)}; one slot per
        #: attester per position, so a corrupt replica cannot grow it.
        self._attest: dict[int, dict[int, tuple[bytes, list[bytes]]]] = {}
        self._stable: tuple[Checkpoint, list] | None = None
        self._diverged: set[int] = set()

        self.phase = PHASE_LIVE
        self._join_round: int | None = None
        #: Deliveries made while catching up, with their index since
        #: fast-forward: index *k* sits at group position ``base + k``
        #: (the broadcast delivers in deterministic group order), which
        #: is how the drain skips entries a newer absorbed checkpoint
        #: already covers.
        self._buffer: list[tuple[int, AbDelivery]] = []
        #: Count of this broadcast's deliveries since its fast-forward,
        #: and the group position its first delivery sits at (known once
        #: the join-round boundary is agreed).  ``None`` base on replicas
        #: that never recovered.
        self._ff_count = 0
        self._ff_base: int | None = None
        self._boot_resp: dict[int, dict[str, Any]] = {}
        self._tail_info: dict[int, tuple[int | None, int, int]] = {}
        self._tail_entries: dict[int, dict[int, tuple[int, int, bytes, Any]]] = {}
        self._payload_votes: dict[MsgId, dict[int, tuple[bytes, Any]]] = {}
        self._wave_delay = REQUEST_BASE_S
        self._next_wave_at = 0.0
        self._bootstrap_waves = 0
        self._recovery_started_at: float | None = None
        if recovering:
            self.phase = PHASE_BOOTSTRAP
            self._recovery_started_at = stack.clock()
            self.poke()

    # -- accessors -----------------------------------------------------------------

    @property
    def position(self) -> int:
        """Absolute delivery position (junk-inclusive; deterministic
        across correct replicas)."""
        return self._next_pos

    @property
    def stable_seq(self) -> int:
        """Position of the newest stable checkpoint, 0 if none yet."""
        return self._stable[0].seq if self._stable is not None else 0

    # -- delivery interposition ----------------------------------------------------

    def _on_ab_deliver(self, instance, delivery: AbDelivery) -> None:
        if self.phase != PHASE_LIVE:
            # A catching-up replica cannot place these deliveries yet:
            # they belong at the group position of its join round, which
            # it is still learning from peers.
            self._buffer.append((self._ff_count, delivery))
            self._ff_count += 1
            return
        if self._ff_base is not None:
            # On a recovered replica the broadcast's k-th delivery since
            # fast-forward sits at group position base + k; one that a
            # checkpoint absorbed mid-join already covered (it was
            # stalled awaiting its payload at the time) must not apply
            # again.
            absolute = self._ff_base + self._ff_count
            self._ff_count += 1
            if absolute < self._next_pos:
                return
        self._deliver_live(instance, delivery)

    def _deliver_live(self, instance, delivery: AbDelivery) -> None:
        pos = self._next_pos
        self._next_pos += 1
        if delivery.sequence != pos:
            # The broadcast numbers deliveries from its own start; after
            # a fast-forward that is not the group position.  Rewrite so
            # the application always sees absolute positions.
            delivery = dataclasses.replace(delivery, sequence=pos)
        self._log.append((pos, delivery.sender, delivery.rbid, delivery.payload))
        if self._inner_deliver is not None:
            self._inner_deliver(instance, delivery)
        if self._next_pos % self._interval == 0:
            self._take_checkpoint(self._next_pos)

    # -- checkpoint duty -----------------------------------------------------------

    def _take_checkpoint(self, seq: int) -> None:
        snapshot = self._rsm.snapshot_bytes()
        frontier = self._ab.delivered_frontier()
        digest = checkpoint_digest(snapshot, frontier)
        record = Checkpoint(seq, digest, snapshot, frontier)
        self._records[seq] = record
        while len(self._records) > MAX_RECORDS:
            del self._records[min(self._records)]
        self.stats.checkpoints_taken += 1
        vector = mac_vector(attestation_bytes(seq, digest), self._stack.keystore)
        self.stats.attestations_sent += 1
        self.protocol.send_all(M_CHECKPOINT, [seq, digest, vector])
        self._maybe_stable(seq)

    def handle_checkpoint(
        self, src: int, seq: int, digest: bytes, vector: list[bytes]
    ) -> None:
        me = self._stack.process_id
        horizon = max(self._next_pos, self.stable_seq) + ATTEST_WINDOWS * self._interval
        if seq % self._interval != 0 or seq <= self.stable_seq or seq > horizon:
            self.stats.attestations_rejected += 1
            return
        if me >= len(vector) or not verify_mac(
            attestation_bytes(seq, digest),
            self._stack.keystore.key_for(src),
            vector[me],
        ):
            self.stats.attestations_rejected += 1
            return
        self.stats.attestations_accepted += 1
        self._attest.setdefault(seq, {})[src] = (digest, vector)
        self._maybe_stable(seq)

    def _maybe_stable(self, seq: int) -> None:
        record = self._records.get(seq)
        attesters = self._attest.get(seq)
        if record is None or attesters is None:
            return
        matching = {
            src: vector
            for src, (digest, vector) in attesters.items()
            if digest == record.digest
        }
        if len(matching) >= self._cfg.certificate_quorum:
            self._on_stable(record, build_certificate(matching))
            return
        # f+1 attesters agreeing on a digest that is NOT ours means the
        # certified state differs from what we computed: either we or
        # our history diverged.  Surfaced as a counter for operators.
        if seq not in self._diverged:
            votes: dict[bytes, int] = {}
            for digest, _ in attesters.values():
                votes[digest] = votes.get(digest, 0) + 1
            for digest, count in votes.items():
                if digest != record.digest and count >= self._cfg.certificate_quorum:
                    self._diverged.add(seq)
                    self.stats.digest_divergence += 1
                    break

    def _on_stable(self, record: Checkpoint, certificate: list) -> None:
        if self._stable is not None and record.seq <= self._stable[0].seq:
            return
        self._stable = (record, certificate)
        self.stats.checkpoints_stable += 1
        dropped = 0
        while self._log and self._log[0][0] < record.seq:
            self._log.popleft()
            dropped += 1
        if dropped:
            self.stats.log_truncations += 1
        self._rsm.trim_applied(self._next_pos - record.seq)
        for seq in [s for s in self._records if s < record.seq]:
            del self._records[seq]
        for seq in [s for s in self._attest if s <= record.seq]:
            del self._attest[seq]
        self._diverged = {s for s in self._diverged if s > record.seq}

    # -- serving peers -------------------------------------------------------------

    def handle_state_req(
        self, src: int, mode: int, from_pos: int, join_round: int | None
    ) -> None:
        if self.phase != PHASE_LIVE or src == self._stack.process_id:
            return
        self.stats.state_requests_served += 1
        max_rbid = self._ab.max_rbid_from(src)
        log_floor = self._log[0][0] if self._log else self._next_pos
        if mode == MODE_TAIL and from_pos < log_floor:
            # A stable checkpoint truncated the positions the joiner
            # still needs; answer with the checkpoint instead so it can
            # catch forward rather than wait for entries that are gone.
            mode = MODE_BOOTSTRAP
        if mode == MODE_BOOTSTRAP:
            part = None
            base = from_pos
            if self._stable is not None:
                record, certificate = self._stable
                part = [
                    record.seq,
                    record.digest,
                    record.snapshot,
                    record.frontier,
                    certificate,
                ]
                base = max(from_pos, record.seq)
            entries = self._entries_from(base, None)
            payload = [
                MODE_BOOTSTRAP,
                part,
                entries,
                self._next_pos,
                self._ab.round,
                max_rbid,
            ]
        else:
            if join_round is None:
                return
            boundary = self._ab.positions_by_round().get(join_round - 1)
            entries = (
                self._entries_from(from_pos, boundary) if boundary is not None else []
            )
            payload = [
                MODE_TAIL,
                boundary,
                entries,
                self._next_pos,
                self._ab.round,
                max_rbid,
            ]
        self.stats.state_bytes_sent += _approx_size(payload)
        self.protocol.send(src, M_STATE_RESP, payload)

    def _entries_from(self, lo: int, hi: int | None) -> list[list[Any]]:
        out: list[list[Any]] = []
        for pos, sender, rbid, payload in self._log:
            if pos < lo:
                continue
            if hi is not None and pos >= hi:
                break
            out.append([pos, sender, rbid, payload])
            if len(out) >= MAX_ENTRIES:
                break
        return out

    def handle_payload_req(self, src: int, ids: list[MsgId]) -> None:
        if self.phase != PHASE_LIVE or src == self._stack.process_id:
            return
        index: dict[MsgId, Any] = {
            (sender, rbid): payload for _, sender, rbid, payload in self._log
        }
        found = [
            [msg_id[0], msg_id[1], index[msg_id]] for msg_id in ids if msg_id in index
        ]
        if found:
            self.stats.payloads_served += len(found)
            self.stats.state_bytes_sent += _approx_size(found)
            self.protocol.send(src, M_PAYLOAD_RESP, found)

    # -- recovering: bootstrap -----------------------------------------------------

    def handle_bootstrap_resp(
        self,
        src: int,
        ckpt: list | None,
        entries: list[tuple[int, int, int, Any]],
        head_pos: int,
        head_round: int,
        max_rbid: int,
        wire_size: int,
    ) -> None:
        if self.phase == PHASE_LIVE or src == self._stack.process_id:
            return
        self.stats.state_responses_received += 1
        self.stats.state_bytes_received += wire_size
        verified = None
        if ckpt is not None:
            seq, digest, snapshot, frontier_raw, cert_raw = ckpt
            frontier = parse_id_ranges(
                frontier_raw, self._cfg.process_ids, watermarks=True
            )
            certificate = parse_certificate(cert_raw, self._cfg.num_processes)
            if (
                frontier is not None
                and certificate is not None
                and checkpoint_digest(snapshot, frontier) == digest
                and verify_certificate(
                    seq,
                    digest,
                    certificate,
                    self._stack.keystore,
                    self._cfg.certificate_quorum,
                )
            ):
                verified = (seq, digest, snapshot, frontier, cert_raw)
            else:
                self.stats.certificates_rejected += 1
        if self.phase == PHASE_JOINING:
            # A peer answered a tail request with its checkpoint: the
            # positions we were fetching were truncated group-wide.
            # Catch forward to the certified checkpoint (no quorum needed
            # -- the certificate itself carries f+1 attesters).
            if verified is not None and verified[0] > self._next_pos:
                self._absorb_checkpoint(verified)
                self._try_join()
            return
        self._boot_resp[src] = {
            "ckpt": verified,
            "entries": _entry_map(entries),
            "head": head_pos,
            "round": head_round,
            "max_rbid": max_rbid,
        }
        self._try_bootstrap()

    def _try_bootstrap(self) -> None:
        quorum = self._cfg.certificate_quorum
        if len(self._boot_resp) < quorum:
            return
        best = None
        for resp in self._boot_resp.values():
            ckpt = resp["ckpt"]
            if ckpt is not None and (best is None or ckpt[0] > best[0]):
                best = ckpt
        base_seq = best[0] if best is not None else 0
        per_source = {src: r["entries"] for src, r in self._boot_resp.items()}
        suffix: list[tuple[int, int, int, Any]] = []
        pos = base_seq
        while True:
            entry = _confirmed_entry(per_source, pos, quorum)
            if entry is None:
                break
            suffix.append((pos,) + entry)
            pos += 1
        # Among any f+1 responses at least one comes from a process that
        # reached (leader round - 1), so max+margin lands strictly past
        # every round any correct process can have started -- and frames
        # for rounds reached since we began listening sit in the OOC
        # table, replayed the instant fast_forward creates the round.
        join_round = max(r["round"] for r in self._boot_resp.values()) + JOIN_MARGIN
        frontier = None
        if best is not None:
            self._rsm.install_snapshot(best[2])
            self.stats.snapshots_installed += 1
            record = Checkpoint(best[0], best[1], best[2], best[3])
            self._stable = (record, best[4])
            self._records = {best[0]: record}
            frontier = best[3]
        self._next_pos = base_seq
        self._log.clear()
        applied_ids: list[MsgId] = []
        for pos, sender, rbid, payload in suffix:
            self._log.append((pos, sender, rbid, payload))
            self._rsm.ingest_recovered(
                AbDelivery(sender=sender, rbid=rbid, payload=payload, sequence=pos)
            )
            applied_ids.append((sender, rbid))
            self._next_pos = pos + 1
            self.stats.suffix_entries_applied += 1
        try:
            self._ab.fast_forward(join_round, frontier)
        except (ProtocolViolationError, ValueError):
            return
        for msg_id in applied_ids:
            self._ab.note_delivered_external(msg_id)
        next_rbid = 1 + max(r["max_rbid"] for r in self._boot_resp.values())
        self._ab.resume_broadcast_ids(next_rbid)
        self._join_round = join_round
        self.phase = PHASE_JOINING
        self._boot_resp.clear()
        self._reset_wave()
        self.poke()

    def _absorb_checkpoint(
        self, verified: tuple[int, bytes, bytes, list, list]
    ) -> None:
        """Install a certified checkpoint newer than our position
        (mid-join catch-forward after group-wide truncation)."""
        seq, digest, snapshot, frontier, cert_raw = verified
        self._rsm.install_snapshot(snapshot)
        self.stats.snapshots_installed += 1
        record = Checkpoint(seq, digest, snapshot, frontier)
        self._stable = (record, cert_raw)
        self._records = {seq: record}
        self._log.clear()
        self._next_pos = seq
        self._ab.absorb_frontier(frontier)

    # -- recovering: tail ----------------------------------------------------------

    def handle_tail_resp(
        self,
        src: int,
        boundary: int | None,
        entries: list[tuple[int, int, int, Any]],
        head_pos: int,
        head_round: int,
        max_rbid: int,
        wire_size: int,
    ) -> None:
        if self.phase != PHASE_JOINING or src == self._stack.process_id:
            return
        self.stats.state_responses_received += 1
        self.stats.state_bytes_received += wire_size
        self._tail_info[src] = (boundary, head_pos, head_round)
        self._tail_entries.setdefault(src, {}).update(_entry_map(entries))
        self._try_join()

    def _try_join(self) -> None:
        quorum = self._cfg.certificate_quorum
        votes: dict[int, int] = {}
        for boundary, _, _ in self._tail_info.values():
            if boundary is not None:
                votes[boundary] = votes.get(boundary, 0) + 1
        target = None
        for boundary, count in votes.items():
            if count >= quorum:
                target = boundary
                break
        if target is None:
            return
        while self._next_pos < target:
            entry = _confirmed_entry(self._tail_entries, self._next_pos, quorum)
            if entry is None:
                return  # gap: wait for more responses
            sender, rbid, payload = entry
            pos = self._next_pos
            self._log.append((pos, sender, rbid, payload))
            self._rsm.ingest_recovered(
                AbDelivery(sender=sender, rbid=rbid, payload=payload, sequence=pos)
            )
            self._ab.note_delivered_external((sender, rbid))
            self._next_pos = pos + 1
            self.stats.suffix_entries_applied += 1
        self._complete_join(target)

    def _complete_join(self, base: int) -> None:
        self._ab.set_position_base(base)
        self._ff_base = base
        self.phase = PHASE_LIVE
        self._join_round = None
        self._tail_info.clear()
        self._tail_entries.clear()
        self._payload_votes.clear()
        buffered, self._buffer = self._buffer, []
        for index, delivery in buffered:
            if base + index < self._next_pos:
                # Covered by a checkpoint absorbed mid-join.
                continue
            self.stats.buffered_applied += 1
            self._deliver_live(self._ab, delivery)
        if self._recovery_started_at is not None:
            self.stats.rejoin_time_s = self._stack.clock() - self._recovery_started_at
            self._recovery_started_at = None

    # -- recovering: payload fetch -------------------------------------------------

    def handle_payload_resp(
        self, src: int, found: list[tuple[int, int, Any]], wire_size: int
    ) -> None:
        if self.phase == PHASE_BOOTSTRAP or src == self._stack.process_id:
            return
        self.stats.state_bytes_received += wire_size
        for sender, rbid, payload in found:
            msg_id = (sender, rbid)
            try:
                encoded = encode_value(payload)
            except (WireFormatError, ValueError, TypeError, OverflowError):
                continue
            votes = self._payload_votes.setdefault(msg_id, {})
            votes[src] = (encoded, payload)
            tally: dict[bytes, int] = {}
            for enc, _ in votes.values():
                tally[enc] = tally.get(enc, 0) + 1
            for enc, count in tally.items():
                if count >= self._cfg.certificate_quorum:
                    value = next(v for e, v in votes.values() if e == enc)
                    if self._ab.inject_payload(msg_id, value):
                        self.stats.payloads_injected += 1
                        self._payload_votes.pop(msg_id, None)
                    break

    # -- timers --------------------------------------------------------------------

    def poke(self) -> None:
        """Advance poke-driven timers; call periodically from the runtime.

        Idle on a live, fully caught-up replica; otherwise sends the
        request wave that is due (with exponential backoff per wave).
        """
        now = self._stack.clock()
        if now < self._next_wave_at:
            return
        if self.phase == PHASE_LIVE:
            stalled = self._ab.stalled_ids()
            if not stalled:
                self._payload_votes.clear()
                return
            self._send_payload_wave(stalled)
        elif self.phase == PHASE_BOOTSTRAP:
            peers = [
                pid
                for pid in self._cfg.process_ids
                if pid != self._stack.process_id
            ]
            if self._bootstrap_waves == 0:
                # Responses are heavy (snapshot + certificate), and f+1
                # suffice: ask only that many peers first, widening to
                # everyone on the retry waves in case some never answer.
                peers = peers[: self._cfg.certificate_quorum]
            for pid in peers:
                self.protocol.send(pid, M_STATE_REQ, [MODE_BOOTSTRAP, self._next_pos, None])
            self._bootstrap_waves += 1
            self.stats.state_requests_sent += 1
        else:  # PHASE_JOINING
            self.protocol.send_to_peers(
                M_STATE_REQ, [MODE_TAIL, self._next_pos, self._join_round]
            )
            self.stats.state_requests_sent += 1
            stalled = self._ab.stalled_ids()
            if stalled:
                self._send_payload_wave(stalled)
            # Agreement rounds only advance when messages are broadcast;
            # a quiet group would never reach our join round.  A noop
            # command (ignored by the state machine at every replica)
            # pushes one round forward per wave, past admission control.
            self._ab.nudge(Command("noop", []).encode())
        self._wave_delay = min(self._wave_delay * 2.0, REQUEST_MAX_S)
        self._next_wave_at = now + self._wave_delay

    def _send_payload_wave(self, stalled: list[MsgId]) -> None:
        self.protocol.send_to_peers(
            M_PAYLOAD_REQ, [[sender, rbid] for sender, rbid in stalled]
        )
        self.stats.payload_requests_sent += 1

    def _reset_wave(self) -> None:
        self._wave_delay = REQUEST_BASE_S
        self._next_wave_at = 0.0


def _entry_map(
    entries: list[tuple[int, int, int, Any]],
) -> dict[int, tuple[int, int, bytes, Any]]:
    """Index response entries by position, with the payload's canonical
    encoding alongside for exact cross-response comparison."""
    out: dict[int, tuple[int, int, bytes, Any]] = {}
    for pos, sender, rbid, payload in entries:
        try:
            encoded = encode_value(payload)
        except (WireFormatError, ValueError, TypeError, OverflowError):
            continue
        out[pos] = (sender, rbid, encoded, payload)
    return out


def _confirmed_entry(
    per_source: dict[int, dict[int, tuple[int, int, bytes, Any]]],
    pos: int,
    quorum: int,
) -> tuple[int, int, Any] | None:
    """The entry at *pos* vouched for by *quorum* responders, if any.

    ``quorum = f + 1`` identical entries include one from a correct
    replica, so the entry is the group's true delivery at that position.
    """
    votes: dict[tuple[int, int, bytes], int] = {}
    values: dict[tuple[int, int, bytes], Any] = {}
    for entries in per_source.values():
        entry = entries.get(pos)
        if entry is None:
            continue
        key = (entry[0], entry[1], entry[2])
        votes[key] = votes.get(key, 0) + 1
        values[key] = entry[3]
    for key, count in votes.items():
        if count >= quorum:
            return key[0], key[1], values[key]
    return None


def _approx_size(payload: Any) -> int:
    """Encoded size of a response payload, for byte accounting."""
    try:
        return len(encode_value(payload))
    except (WireFormatError, ValueError, TypeError, OverflowError):
        return 0

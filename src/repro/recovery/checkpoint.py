"""Checkpoint records, attestations and stability certificates.

A checkpoint binds three things: the *position* (number of atomic
broadcast deliveries it covers), the canonical *snapshot* of the state
machine after those deliveries, and the delivered-id *frontier* of the
atomic broadcast at that point.  All three are deterministic functions
of the group's total order, so correct replicas compute identical
digests at identical positions.

Authentication reuses the paper's MAC-vector scheme (Section 2.3): an
attester authenticates ``H(snapshot, frontier)`` towards every peer at
once with one vector of pairwise-keyed MACs.  Because the vector carries
an entry for *every* process, it is transferable: a recovering replica
that never saw the original broadcast can still verify its own entry.
``f + 1`` attestation vectors with matching digests form a *stability
certificate* -- at least one attester is correct, hence the digest is
the one every correct replica computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.wire import encode_value
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyStore
from repro.crypto.mac import verify_mac

#: Domain separator: checkpoint attestations can never collide with
#: application payloads or other MAC uses of the pairwise keys.
ATTESTATION_DOMAIN = "ritas-ckpt"


def attestation_bytes(seq: int, digest: bytes) -> bytes:
    """The exact bytes a checkpoint attestation MAC-authenticates."""
    return encode_value([ATTESTATION_DOMAIN, seq, digest])


def checkpoint_digest(snapshot: bytes, frontier: list) -> bytes:
    """Digest binding a state snapshot to the delivered-id frontier."""
    return hash_bytes(snapshot, encode_value(frontier))


@dataclass
class Checkpoint:
    """One replica's record of its own checkpoint at position *seq*.

    Attributes:
        seq: deliveries covered (the checkpoint reflects positions
            ``0 .. seq-1``).
        digest: :func:`checkpoint_digest` of snapshot and frontier.
        snapshot: canonical state bytes
            (:meth:`~repro.apps.state_machine.ReplicatedStateMachine.snapshot_bytes`).
        frontier: delivered-id summary
            (:meth:`~repro.core.atomic_broadcast.AtomicBroadcast.delivered_frontier`).
    """

    seq: int
    digest: bytes
    snapshot: bytes
    frontier: list


def build_certificate(attestations: dict[int, list[bytes]]) -> list:
    """Wire form of a stability certificate:
    ``[[attester, [mac...]], ...]`` sorted by attester id."""
    return [[pid, list(vector)] for pid, vector in sorted(attestations.items())]


def parse_certificate(payload: Any, num_processes: int) -> dict[int, list[bytes]] | None:
    """Defensively decode a wire certificate; ``None`` if malformed."""
    if not isinstance(payload, list) or len(payload) > num_processes:
        return None
    out: dict[int, list[bytes]] = {}
    for entry in payload:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not isinstance(entry[0], int)
            or not 0 <= entry[0] < num_processes
            or entry[0] in out
            or not isinstance(entry[1], list)
            or len(entry[1]) != num_processes
            or not all(isinstance(tag, bytes) for tag in entry[1])
        ):
            return None
        out[entry[0]] = entry[1]
    return out


def verify_certificate(
    seq: int,
    digest: bytes,
    certificate: dict[int, list[bytes]],
    keystore: KeyStore,
    quorum: int,
) -> bool:
    """Check a stability certificate from this process's point of view.

    Each attester's vector must authenticate ``(seq, digest)`` towards
    *this* process under the key it shares with the attester; *quorum*
    (``f + 1``) distinct valid attesters make the digest trustworthy.
    """
    me = keystore.process_id
    message = attestation_bytes(seq, digest)
    valid = 0
    for attester, vector in certificate.items():
        if me >= len(vector):
            continue
        if verify_mac(message, keystore.key_for(attester), vector[me]):
            valid += 1
            if valid >= quorum:
                return True
    return False

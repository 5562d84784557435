"""Checkpoint duty: digests, certificates, truncation and GC.

Covers the non-transfer half of ``repro.recovery``: deterministic state
digests (with caching), transferable attestation certificates, stable
checkpoints truncating the delivery log, and the checkpoint-driven GC
floor of the atomic broadcast.
"""

import pytest

from repro.apps.kv_store import ReplicatedKvStore, _apply_kv
from repro.apps.state_machine import Command, ReplicatedStateMachine
from repro.core.atomic_broadcast import RETAINED_ROUNDS
from repro.core.config import GroupConfig
from repro.crypto.keys import TrustedDealer
from repro.crypto.mac import mac_vector
from repro.recovery import (
    RecoveryManager,
    attestation_bytes,
    build_certificate,
    parse_certificate,
    verify_certificate,
)
from tests.util import InstantNet, ShuffleNet


class _StubAb:
    """Just enough of AtomicBroadcast for an offline state machine."""

    def __init__(self):
        self.on_deliver = None
        self.me = 0

    def broadcast(self, payload):  # pragma: no cover - unused
        return (self.me, 0)


def _offline_rsm(commands):
    rsm = ReplicatedStateMachine(_StubAb(), _apply_kv, initial_state={})
    for command in commands:
        rsm.state, _ = _apply_kv(rsm.state, command)
    return rsm


class TestDigestCache:
    def test_digest_stable_across_dict_orderings(self):
        forward = [Command("put", ["a", b"1"]), Command("put", ["b", b"2"])]
        backward = [Command("put", ["b", b"2"]), Command("put", ["a", b"1"])]
        one, two = _offline_rsm(forward), _offline_rsm(backward)
        assert one.state == two.state
        assert one.state_digest() == two.state_digest()
        assert one.snapshot_bytes() == two.snapshot_bytes()

    def test_cache_hit_and_invalidation_on_step(self):
        rsm = _offline_rsm([Command("put", ["k", b"v"])])
        first = rsm.state_digest()
        assert rsm.state_digest() is first  # served from cache
        from repro.core.atomic_broadcast import AbDelivery

        rsm._step(
            AbDelivery(sender=1, rbid=0, payload=b"", sequence=0),
            Command("put", ["k", b"changed"]),
        )
        assert rsm.state_digest() != first

    def test_digest_matches_snapshot_hash(self):
        from repro.crypto.hashing import hash_bytes

        rsm = _offline_rsm([Command("put", ["k", b"v"])])
        assert rsm.state_digest() == hash_bytes(rsm.snapshot_bytes())


class TestCertificates:
    def setup_method(self):
        self.n = 4
        self.dealer = TrustedDealer(self.n, seed=b"cert-test")
        self.keystores = [self.dealer.keystore_for(pid) for pid in range(self.n)]

    def _vector(self, attester, seq, digest):
        return mac_vector(attestation_bytes(seq, digest), self.keystores[attester])

    def test_roundtrip_verifies_at_every_replica(self):
        seq, digest = 8, b"d" * 32
        wire = build_certificate(
            {pid: self._vector(pid, seq, digest) for pid in (0, 2)}
        )
        for keystore in self.keystores:
            certificate = parse_certificate(wire, self.n)
            assert certificate is not None
            assert verify_certificate(seq, digest, certificate, keystore, quorum=2)

    def test_wrong_digest_or_seq_rejected(self):
        seq, digest = 8, b"d" * 32
        certificate = {pid: self._vector(pid, seq, digest) for pid in (0, 2)}
        assert not verify_certificate(
            seq, b"x" * 32, certificate, self.keystores[1], quorum=2
        )
        assert not verify_certificate(
            16, digest, certificate, self.keystores[1], quorum=2
        )

    def test_sub_quorum_rejected(self):
        seq, digest = 8, b"d" * 32
        certificate = {0: self._vector(0, seq, digest)}
        assert not verify_certificate(
            seq, digest, certificate, self.keystores[1], quorum=2
        )

    def test_parse_rejects_duplicates_and_bad_shapes(self):
        seq, digest = 8, b"d" * 32
        vector = self._vector(0, seq, digest)
        assert parse_certificate([[0, vector], [0, vector]], self.n) is None
        assert parse_certificate([[0, vector[:-1]]], self.n) is None
        assert parse_certificate([[9, vector]], self.n) is None
        assert parse_certificate("junk", self.n) is None


def _attach_recovery(net):
    stores, managers = [], []
    for stack in net.stacks:
        store = ReplicatedKvStore(stack.create("ab", ("kv",)))
        managers.append(RecoveryManager(stack, store.rsm))
        stores.append(store)
    return stores, managers


def _assert_log_invariants(manager):
    """Truncation must only ever drop delivered, checkpoint-covered
    positions: the retained log is the contiguous range ending at the
    replica's position, and its low end never passes the stable seq."""
    positions = [pos for pos, _, _, _ in manager._log]
    assert positions == list(range(manager.position - len(positions), manager.position))
    assert manager.position - len(positions) <= manager.stable_seq
    assert manager.stable_seq <= manager.position


class TestCheckpointStability:
    def test_stable_checkpoints_truncate_and_advance_gc(self):
        config = GroupConfig(4, checkpoint_interval=8)
        net = InstantNet(config=config, seed=11)
        stores, managers = _attach_recovery(net)
        for burst in range(5):
            for i in range(8):
                stores[i % 4].put(f"k{burst}/{i}", bytes([burst, i]))
            net.run()
        assert len({s.state_digest() for s in stores}) == 1
        for store, manager in zip(stores, managers):
            assert manager.position == 40
            assert manager.stats.checkpoints_taken == 5
            assert manager.stats.checkpoints_stable >= 1
            assert manager.stable_seq == 40
            assert manager.stats.log_truncations >= 1
            # The applied log is bounded by the checkpoint window.
            assert len(store.rsm.applied) == manager.position - manager.stable_seq
            _assert_log_invariants(manager)

    def test_gc_floor_advances_under_checkpointing(self):
        config = GroupConfig(4, checkpoint_interval=4)
        net = InstantNet(config=config, seed=3)
        stores, managers = _attach_recovery(net)
        for burst in range(6):
            for i in range(4):
                stores[i].put(f"b{burst}", bytes([i]))
            net.run()
        for manager in managers:
            # Reclamation is atomic broadcast's own (always on, two rounds
            # behind the agreement); the checkpoint layer only truncates logs.
            ab = manager._ab
            assert ab.gc_floor > 0
            assert ab.round - ab.gc_floor == RETAINED_ROUNDS

    def test_attestation_from_wrong_digest_never_stabilizes(self):
        config = GroupConfig(4, checkpoint_interval=8)
        net = InstantNet(config=config, seed=5)
        stores, managers = _attach_recovery(net)
        stores[0].put("x", b"1")
        net.run()
        manager = managers[0]
        bogus = b"z" * 32
        vector = mac_vector(
            attestation_bytes(8, bogus), net.stacks[1].keystore
        )
        before = manager.stats.attestations_accepted
        manager.handle_checkpoint(1, 8, bogus, vector)
        assert manager.stats.attestations_accepted == before + 1
        assert manager.stable_seq == 0  # one vote is below the f+1 quorum


class TestTruncationProperty:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_truncation_never_drops_undelivered_positions(self, seed):
        import random

        config = GroupConfig(4, checkpoint_interval=4)
        net = ShuffleNet(config=config, seed=seed)
        stores, managers = _attach_recovery(net)
        rng = random.Random(f"workload/{seed}")
        for step in range(24):
            stores[step % 4].put(f"k{rng.randrange(6)}", bytes([step]))
            for _ in range(rng.randrange(40)):
                if not net.step():
                    break
            for manager in managers:
                _assert_log_invariants(manager)
        net.run()
        assert len({s.state_digest() for s in stores}) == 1
        positions = {m.position for m in managers}
        assert positions == {24}
        for manager in managers:
            _assert_log_invariants(manager)
            assert manager.stable_seq == 24

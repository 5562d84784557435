"""Byzantine strategies: every Section 4.2 attack must fail against the
honest majority, and the fault plan must keep the attacker inside f."""

import pytest

from repro.adversary import (
    byzantine_paper_faultload,
    crash_consensus_faultload,
    random_noise_faultload,
)
from repro.core.stack import ProtocolFactory
from repro.net.faults import FaultPlan

from util import InstantNet, ShuffleNet, decisions_of


def bc_net(seed, transform, attacker=3):
    factory = transform(ProtocolFactory.default())
    return ShuffleNet(4, seed=seed, factories={attacker: factory})


def run_bc(net, proposals):
    for pid, stack in enumerate(net.stacks):
        stack.create("bc", ("bc",))
    for pid, stack in enumerate(net.stacks):
        stack.instance_at(("bc",)).propose(proposals[pid])
    net.run()
    return [net.stacks[pid].instance_at(("bc",)).decision for pid in range(3)]


class TestAlwaysZeroAttack:
    def test_cannot_flip_unanimous_one(self):
        """All correct propose 1; the attacker pushes 0 everywhere.  The
        validity property must hold: decision 1."""
        for seed in range(10):
            net = bc_net(seed, byzantine_paper_faultload)
            decisions = run_bc(net, [1, 1, 1, 0])
            assert decisions == [1, 1, 1], f"seed {seed}: {decisions}"

    def test_correct_still_decide_one_round(self):
        for seed in range(5):
            net = bc_net(seed, byzantine_paper_faultload)
            run_bc(net, [1, 1, 1, 0])
            for pid in range(3):
                bc = net.stacks[pid].instance_at(("bc",))
                assert bc.decision_round == 1, f"seed {seed}"

    def test_zero_attack_with_unanimous_zero_is_harmless(self):
        net = bc_net(0, byzantine_paper_faultload)
        assert run_bc(net, [0, 0, 0, 0]) == [0, 0, 0]


class TestRandomNoiseAttack:
    def test_agreement_survives_noise(self):
        for seed in range(10):
            net = bc_net(seed, random_noise_faultload)
            decisions = run_bc(net, [1, 1, 1, 1])
            assert decisions == [1, 1, 1], f"seed {seed}"

    def test_mixed_proposals_still_agree(self):
        for seed in range(10):
            net = bc_net(seed, random_noise_faultload)
            decisions = run_bc(net, [0, 1, 0, 1])
            assert len(set(decisions)) == 1, f"seed {seed}"


class TestOmissionAttack:
    def test_mute_consensus_participant_tolerated(self):
        for seed in range(10):
            net = bc_net(seed, crash_consensus_faultload)
            decisions = run_bc(net, [1, 1, 1, 1])
            assert decisions == [1, 1, 1], f"seed {seed}"


class TestMvcAttackThroughTheStack:
    def test_full_paper_faultload_on_mvc(self):
        for seed in range(8):
            factory = byzantine_paper_faultload(ProtocolFactory.default())
            net = ShuffleNet(4, seed=seed, factories={2: factory})
            for stack in net.stacks:
                stack.create("mvc", ("m",))
            for stack in net.stacks:
                stack.instance_at(("m",)).propose(b"payload")
            net.run()
            correct = [
                net.stacks[pid].instance_at(("m",)).decision for pid in (0, 1, 3)
            ]
            assert correct == [b"payload"] * 3, f"seed {seed}"


class TestFaultPlan:
    def test_too_many_faults_rejected(self):
        plan = FaultPlan(crashed={0: 0.0}, byzantine={1: byzantine_paper_faultload})
        with pytest.raises(ValueError, match="tolerates"):
            plan.validate(4, 1)

    def test_crash_and_byzantine_same_process_is_one_fault(self):
        plan = FaultPlan(crashed={0: 0.0}, byzantine={0: byzantine_paper_faultload})
        plan.validate(4, 1)
        assert plan.faulty_ids() == {0}

    def test_out_of_range_pid_rejected(self):
        with pytest.raises(ValueError, match="range"):
            FaultPlan(crashed={7: 0.0}).validate(4, 1)

    def test_is_crashed_respects_time(self):
        plan = FaultPlan(crashed={1: 2.0})
        assert not plan.is_crashed(1, 1.0)
        assert plan.is_crashed(1, 2.0)
        assert not plan.is_crashed(0, 99.0)

    def test_constructors(self):
        assert FaultPlan.failure_free().faulty_ids() == set()
        assert FaultPlan.fail_stop(2).crashed == {2: 0.0}
        plan = FaultPlan.with_byzantine(1, byzantine_paper_faultload)
        assert plan.faulty_ids() == {1}


class TestVectForge:
    def test_every_correct_broadcast_delivers_across_seeds(self):
        """Forged AB_VECTs (bool-spelled, duplicated triples, a batch
        over ``MAX_BATCH_MSGS``, ghost batches, an at-cap ghost batch)
        neither break an invariant nor hold back a correct op; the
        scenario's driver raises ``ab-forge-liveness`` otherwise."""
        from repro.check.explore import explore

        reproducer = explore("byz-vect-forge", 5)
        assert reproducer is None, (
            f"violated {reproducer['violation']['invariant']} (seed {reproducer['seed']}): "
            f"{reproducer['violation']['detail']}"
        )


class TestDigestForge:
    def test_only_malformed_votes_are_scored_across_seeds(self):
        """ECHOs and READYs for a digest nobody's payload has, a short
        ``bytes``, an int, and the correct digest (a READY before any
        ECHO), plus ECHOs carrying the payload: agreement and every
        correct op hold, and correct processes score the forger for the
        malformed kinds only; the scenario's driver raises
        ``rb-digest-forge`` otherwise."""
        from repro.check.explore import explore

        reproducer = explore("byz-digest-forge", 5)
        assert reproducer is None, (
            f"violated {reproducer['violation']['invariant']} (seed {reproducer['seed']}): "
            f"{reproducer['violation']['detail']}"
        )


class TestInitOmit:
    def test_every_correct_process_delivers_across_seeds(self):
        """A sender whose INITs never reach one correct process: that
        process delivers every broadcast, in the same sequence as the
        others, from the echoers' PAYLOAD pushes, and nobody correct is
        scored; the scenario's driver raises ``rb-init-omit`` otherwise."""
        from repro.check.explore import explore

        reproducer = explore("byz-init-omit", 5)
        assert reproducer is None, (
            f"violated {reproducer['violation']['invariant']} (seed {reproducer['seed']}): "
            f"{reproducer['violation']['detail']}"
        )

    def test_catches_the_no_push_mutant(self, monkeypatch):
        """Without the push at delivery the omitted process never gets
        the forger's payloads, and the scenario says so."""
        from repro.check.explore import run_one
        from repro.core.reliable_broadcast import ReliableBroadcast

        monkeypatch.setattr(ReliableBroadcast, "_push_payload", lambda *_: None)
        result = run_one("byz-init-omit", seed=0, tie_break_seed=0, jitter_s=0.0)
        assert result["outcome"] == "violation"
        assert result["invariant"] == "rb-init-omit"


class TestBatchOverlap:
    def test_each_id_delivers_once_alike_across_seeds(self):
        """Overlapping batches with conflicting payloads for the shared
        id, and batches of the wrong length: every correct replica
        delivers the same sequence, each id at most once, and every
        correct op, scoring no correct peer; the scenario's driver
        raises ``ab-batch-overlap`` otherwise."""
        from repro.check.explore import explore

        reproducer = explore("byz-batch-overlap", 5)
        assert reproducer is None, (
            f"violated {reproducer['violation']['invariant']} (seed {reproducer['seed']}): "
            f"{reproducer['violation']['detail']}"
        )

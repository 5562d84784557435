"""The invariant checker: clean runs stay clean, injected divergence is caught.

Detection tests plant a divergence directly in one correct stack's
protocol state and assert :meth:`InvariantChecker.check_all` names the
right invariant -- exercising each per-protocol check without needing a
schedule that organically produces the bug.
"""

import random
from collections import Counter

import pytest

from repro.check import InvariantChecker, InvariantViolation
from repro.check.explore import run_one
from repro.check.invariants import OrderLog, align_order_logs
from repro.check.scenarios import SCENARIOS
from repro.core.mbuf import Mbuf
from repro.core.ooc import OocTable
from repro.net.network import LanSimulation


def run_checked(name, seed=3):
    """Run a registered scenario to quiescence under the checker."""
    scenario = SCENARIOS[name]
    sim = scenario.build(seed, seed, 0.0)
    checker = InvariantChecker(sim)
    scenario.apply_ops(sim, scenario.ops)
    sim.run(max_time=scenario.max_time)
    checker.check_all()
    return sim, checker


class TestCleanRuns:
    @pytest.mark.parametrize(
        "name", ["failure-free", "crash", "byz-paper", "byz-bc-split"]
    )
    def test_scenario_is_clean(self, name):
        result = run_one(name, seed=3, tie_break_seed=3)
        assert result["outcome"] == "ok", result
        assert result["events"] > 0


class TestInjectedDivergence:
    def test_rb_agreement(self):
        sim = LanSimulation(n=4, seed=1)
        checker = InvariantChecker(sim)
        for stack in sim.stacks:
            stack.create("rb", ("m",), sender=0)
        sim.stacks[0].instance_at(("m",)).broadcast(b"payload")
        sim.run(max_time=5.0)
        checker.check_all()
        victim = sim.stacks[1].instance_at(("m",))
        assert victim.delivered
        victim.delivered_value = b"tampered"
        with pytest.raises(InvariantViolation) as exc:
            checker.check_all()
        assert exc.value.invariant == "rb-agreement"
        assert exc.value.path == ("m",)

    def test_bc_agreement(self):
        sim, checker = run_checked("failure-free")
        pid = sorted(checker.correct)[0]
        bc = sim.stacks[pid].instance_at(("bc", "v"))
        assert bc.decided
        bc.decision = 1 - bc.decision
        with pytest.raises(InvariantViolation) as exc:
            checker.check_all()
        assert exc.value.invariant == "bc-agreement"

    def test_bc_step3_uniqueness(self):
        sim, checker = run_checked("failure-free")
        # Pick a round where at least two correct processes broadcast a
        # non-bottom step-3 value, then flip one of them.
        rounds = Counter()
        for pid in checker.correct:
            sent = sim.stacks[pid].instance_at(("bc", "v"))._sent_values
            for (rn, step), value in sent.items():
                if step == 3 and value is not None:
                    rounds[rn] += 1
        rn = next(r for r, count in sorted(rounds.items()) if count >= 2)
        victim = next(
            sim.stacks[pid].instance_at(("bc", "v"))
            for pid in sorted(checker.correct)
            if sim.stacks[pid].instance_at(("bc", "v"))._sent_values.get((rn, 3))
            is not None
        )
        victim._sent_values[(rn, 3)] = 1 - victim._sent_values[(rn, 3)]
        with pytest.raises(InvariantViolation) as exc:
            checker.check_all()
        assert exc.value.invariant == "bc-step3-uniqueness"

    def test_ab_order(self):
        sim, checker = run_checked("failure-free")
        pid = sorted(checker.correct)[0]
        log = checker.order_log._logs[pid, ("ab", "a")]
        assert len(log) >= 2
        log[0], log[1] = log[1], log[0]
        with pytest.raises(InvariantViolation) as exc:
            checker.check_all()
        assert exc.value.invariant == "ab-order"

    def test_mvc_agreement(self):
        sim, checker = run_checked("failure-free")
        pid = sorted(checker.correct)[0]
        mvc = sim.stacks[pid].instance_at(("mvc", "m"))
        assert mvc.decided
        mvc.decision = b"forged"
        with pytest.raises(InvariantViolation) as exc:
            checker.check_all()
        assert exc.value.invariant in ("mvc-agreement", "mvc-validity")

    def test_vc_runs_in_the_catalog_and_catches_a_flipped_vector(self, monkeypatch):
        """The ``crash`` scenario runs a top-level vector consensus, so
        the explorer reaches ``_check_vc``; flipping one slot of one
        correct process's decided vector must then be caught."""
        checked = []
        check_vc = InvariantChecker._check_vc

        def spy(self, path, views, event_index):
            checked.append(path)
            check_vc(self, path, views, event_index)

        monkeypatch.setattr(InvariantChecker, "_check_vc", spy)
        assert run_one("crash", seed=3, tie_break_seed=3)["outcome"] == "ok"
        assert ("vc", "x") in checked
        sim, checker = run_checked("crash")
        vc = sim.stacks[min(checker.correct)].instance_at(("vc", "x"))
        assert vc.decided
        decision = list(vc.decision)
        slot = next(i for i, value in enumerate(decision) if value is not None)
        decision[slot] = b"forged"
        vc.decision = decision
        with pytest.raises(InvariantViolation) as exc:
            checker.check_all()
        assert exc.value.invariant == "vc-agreement"
        assert exc.value.path == ("vc", "x")

    def test_ooc_accounting(self):
        sim, checker = run_checked("failure-free")
        sim.stacks[0].stats.ooc_stored += 1
        with pytest.raises(InvariantViolation) as exc:
            checker.check_all()
        assert exc.value.invariant == "ooc-accounting"


def _ab_burst(checker, per_process=3):
    """Every process A-broadcasts *per_process* messages on ("a",);
    returns once all of them are delivered everywhere."""
    sim = checker.sim
    for stack in sim.stacks:
        stack.create("ab", ("a",))
    for pid, stack in enumerate(sim.stacks):
        for index in range(per_process):
            stack.instance_at(("a",)).broadcast(b"%d:%d" % (pid, index))
    total = per_process * sim.config.num_processes
    sim.run(
        until=lambda: all(s.instance_at(("a",)).delivered_count == total for s in sim.stacks),
        max_time=30.0,
    )
    return total


class TestOrderLog:
    def test_a_capped_log_keeps_the_trailing_window_and_still_aligns(self):
        sim = LanSimulation(n=4, seed=2)
        checker = InvariantChecker(sim, order_log_cap=3)
        full = OrderLog()
        for stack in sim.stacks:
            stack.stats.subscribe(full, OrderLog.KINDS)
        total = _ab_burst(checker)
        checker.check_all()
        whole = full.of(0, ("a",))
        assert len(whole) == total
        for pid in range(4):
            window = checker.order_log.of(pid, ("a",))
            assert window == whole[-3:]
            assert align_order_logs(whole, window) == (total - 3, 0, 3, True)
        # Swapped inside the window: still an order violation.
        log = checker.order_log._logs[1, ("a",)]
        log[1], log[2] = log[2], log[1]
        with pytest.raises(InvariantViolation) as exc:
            checker.check_all()
        assert exc.value.invariant == "ab-order"

    def test_a_restarted_process_starts_an_empty_log(self):
        sim = LanSimulation(n=4, seed=2)
        checker = InvariantChecker(sim)
        _ab_burst(checker)
        assert len(checker.order_log.of(3, ("a",))) == 12
        stack = sim.restart_process(3)
        stack.create("ab", ("a",))
        assert checker.order_log.of(3, ("a",)) == []
        assert len(checker.order_log.of(0, ("a",))) == 12
        checker.check_all()  # an empty window compares with nothing


class TestOocConsistency:
    """OocTable.check_consistency: silent on legal histories, loud on
    corrupted internals (the prefix-index staleness audit, satellite 3)."""

    def test_fuzz_random_operations(self):
        rng = random.Random(1234)
        table = OocTable(6)
        paths = [("ab", i, j) for i in range(3) for j in range(3)]
        for step in range(400):
            roll = rng.random()
            if roll < 0.70:
                table.store(
                    Mbuf(
                        src=rng.randrange(4),
                        path=rng.choice(paths),
                        mtype=1,
                        payload=step,
                        wire_size=rng.randrange(1, 64),
                    )
                )
            elif roll < 0.85:
                table.drain_prefix(rng.choice(paths)[: rng.randrange(1, 4)])
            else:
                table.purge_prefix(rng.choice(paths)[: rng.randrange(1, 4)])
            table.check_consistency()
        assert table.evictions > 0  # the fuzz actually hit the bounds

    def test_detects_stale_prefix_index(self):
        table = OocTable(8)
        table.store(Mbuf(src=0, path=("a", 1), mtype=1, payload=b"x"))
        table._index_add(("ghost", 9))  # a path with no stored messages
        with pytest.raises(AssertionError, match="prefix index"):
            table.check_consistency()

    def test_detects_counter_drift(self):
        table = OocTable(8)
        table.store(Mbuf(src=0, path=("a", 1), mtype=1, payload=b"x", wire_size=8))
        table.bytes += 1
        with pytest.raises(AssertionError, match="byte counter"):
            table.check_consistency()

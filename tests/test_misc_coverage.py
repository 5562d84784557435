"""Cross-cutting coverage: shared coins in simulation, coin determinism,
CLI figure paths, OOC eviction accounting."""

from repro import GroupConfig, LanSimulation
from repro.eval.cli import main as cli_main


class TestSharedCoinSimulation:
    def test_all_processes_toss_identically(self):
        sim = LanSimulation(GroupConfig(4, bc_coin="shared"), seed=5)
        for round_number in range(16):
            tosses = {
                stack.toss_coin(("bc", "x"), round_number) for stack in sim.stacks
            }
            assert len(tosses) == 1

    def test_local_coins_diverge(self):
        sim = LanSimulation(n=4, seed=5)
        sequences = [
            tuple(stack.toss_coin(("bc", "x"), r) for r in range(32))
            for stack in sim.stacks
        ]
        assert len(set(sequences)) > 1

    def test_shared_coin_consensus_end_to_end(self):
        sim = LanSimulation(GroupConfig(4, bc_coin="shared"), seed=5)
        done = [None] * 4
        for pid, stack in enumerate(sim.stacks):
            bc = stack.create("bc", ("b",))
            bc.on_deliver = lambda _i, v, pid=pid: done.__setitem__(pid, v)
        for pid, stack in enumerate(sim.stacks):
            stack.instance_at(("b",)).propose(pid % 2)
        reason = sim.run(until=lambda: all(v is not None for v in done), max_time=60)
        assert reason == "until"
        assert len(set(done)) == 1

    def test_seeded_coins_reproducible(self):
        def decisions(seed):
            sim = LanSimulation(n=4, seed=seed, jitter_s=0.001)
            done = [None] * 4
            for pid, stack in enumerate(sim.stacks):
                bc = stack.create("bc", ("b",))
                bc.on_deliver = lambda _i, v, pid=pid: done.__setitem__(pid, v)
            for pid, stack in enumerate(sim.stacks):
                stack.instance_at(("b",)).propose(pid % 2)
            sim.run(until=lambda: all(v is not None for v in done))
            return tuple(done), sim.now

        assert decisions(123) == decisions(123)


class TestCliFigures:
    def test_fig4_quick_runs(self, capsys):
        assert cli_main(["fig4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "T_max" in out

    def test_fig5_quick_runs(self, capsys):
        assert cli_main(["fig5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("## Figure 5 — atomic broadcast, fail-stop faultload")
        assert "T_max" in out


class TestOocAccounting:
    def test_eviction_counted_in_stats(self):
        from repro.core.stack import Stack
        from repro.core.wire import encode_frame

        # Capacity 20 over n=4 senders: 5 slots for sender 1.
        stack = Stack(GroupConfig(4, ooc_capacity=20), 0, outbox=lambda d, b: None)
        for i in range(12):
            stack.receive(1, encode_frame(("ghost", i), 0, None))
        assert stack.ooc_pending == 5
        assert stack.stats.ooc_stored == 12
        assert stack.stats.ooc_evicted == 7

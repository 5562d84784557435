"""Same-seed runs are byte-identical; restart lifecycle bugs stay fixed.

Covers the determinism/lifecycle satellites: the per-node seeded TCP
RNG (no more module-level ``random``), ticker cancellation across
crash/restart, tracer rewiring after restart, and the property that two
runs with identical seeds -- simulated or over real sockets -- produce
identical trace/delivery streams.
"""

import asyncio

from repro.check.invariants import OrderLog
from repro.check.scenarios import SCENARIOS
from repro.core.config import GroupConfig
from repro.core.trace import Tracer
from repro.crypto.keys import TrustedDealer
from repro.net.faults import FaultPlan
from repro.net.network import LanSimulation
from repro.transport.tcp import RECONNECT_JITTER, RECONNECT_MAX_S, PeerAddress, RitasNode


class TestSimulationDeterminism:
    @staticmethod
    def _traced_run(seed: int) -> str:
        scenario = SCENARIOS["failure-free"]
        sim = scenario.build(seed, seed, 1e-4)
        tracers = []
        for stack in sim.stacks:
            tracer = Tracer(clock=lambda: sim.loop.now)
            stack.stats.subscribe(tracer)
            tracers.append(tracer)
        scenario.apply_ops(sim, scenario.ops)
        sim.run(max_time=scenario.max_time)
        return "\n".join(tracer.render() for tracer in tracers)

    def test_same_seed_runs_are_byte_identical(self):
        first = self._traced_run(7)
        second = self._traced_run(7)
        assert first  # the run actually traced something
        assert first == second

    def test_different_seeds_diverge(self):
        assert self._traced_run(7) != self._traced_run(8)


class TestTcpDeterminism:
    def test_seeded_nodes_draw_identical_streams(self):
        """Satellite 1: reconnect jitter comes from a per-node seeded
        RNG, not the module-level ``random``."""
        config = GroupConfig(4)
        dealer = TrustedDealer(4, seed=b"det")
        blank = [PeerAddress("127.0.0.1", 0)] * 4

        def delays(pid, seed):
            node = RitasNode(config, pid, blank, dealer.keystore_for(pid), seed=seed)
            return [node._reconnect_delay(failures) for failures in range(8)]

        assert delays(1, 42) == delays(1, 42)
        assert delays(1, 42) != delays(2, 42)  # per-node, not per-group
        assert delays(1, 42) != delays(1, 43)
        for delay in delays(3, 7):
            assert 0.0 < delay <= RECONNECT_MAX_S * (1 + RECONNECT_JITTER)

    @staticmethod
    async def _tcp_delivery_stream(seed: int) -> str:
        config = GroupConfig(4)
        dealer = TrustedDealer(4, seed=b"det")
        blank = [PeerAddress("127.0.0.1", 0)] * 4
        nodes = [
            RitasNode(config, pid, blank, dealer.keystore_for(pid), seed=seed)
            for pid in range(4)
        ]
        try:
            for node in nodes:
                await node.listen()
            addresses = [PeerAddress("127.0.0.1", n.bound_port) for n in nodes]
            for node in nodes:
                node.set_peer_addresses(addresses)
            for node in nodes:
                await node.connect()
            order = OrderLog()
            for node in nodes:
                node.stack.stats.subscribe(order, OrderLog.KINDS)
                node.stack.create("ab", ("t",))
            sender = nodes[0].stack.instance_at(("t",))
            for index in range(3):
                sender.broadcast(b"m%d" % index)
            for _ in range(500):
                if all(len(order.of(pid, ("t",))) >= 3 for pid in range(4)):
                    break
                await asyncio.sleep(0.02)
            return repr([order.of(pid, ("t",)) for pid in range(4)])
        finally:
            for node in nodes:
                await node.close()

    def test_same_seed_tcp_runs_deliver_identically(self):
        first = asyncio.run(self._tcp_delivery_stream(5))
        second = asyncio.run(self._tcp_delivery_stream(5))
        assert "None" not in first  # sanity: every node logged the path
        assert first == second
        assert first.count("(0, 0,") == 4  # every node logged seq 0 from p0


class TestCoinDeterminism:
    """Satellite: a stack built without an explicit coin must not fall
    back to ``SystemRandom`` -- same-seed runs stay byte-identical even
    through coin-branch rounds."""

    @staticmethod
    def _traced_coin_run(seed: int) -> tuple[str, list[int]]:
        """The run's rendered traces and each correct process's number of
        coin tosses."""
        # byz-bc-split: split proposals plus the always-zero attacker,
        # so correct processes can reach the step-3 coin branch.
        scenario = SCENARIOS["byz-bc-split"]
        sim = scenario.build(seed, seed, 1e-4)
        tracers = []
        for stack in sim.stacks:
            tracer = Tracer(clock=lambda: sim.loop.now)
            stack.stats.subscribe(tracer)
            tracers.append(tracer)
        scenario.apply_ops(sim, scenario.ops)
        sim.run(max_time=scenario.max_time)
        tosses = [
            len(sim.stacks[pid].instance_at(("bc", "v"))._coin_rounds)
            for pid in range(5)  # pid 5 is the attacker
        ]
        return "\n".join(tracer.render() for tracer in tracers), tosses

    def test_same_seed_coin_branch_runs_are_byte_identical(self):
        # The trace equality covers tosses of the default stack-derived
        # local coin only on a run where every correct process reaches
        # the step-3 coin branch: take the first such seed of a fixed
        # range, whichever it is at this timing model.
        seed = next(
            (seed for seed in range(1, 21) if all(self._traced_coin_run(seed)[1])), None
        )
        assert seed is not None, "no seed in 1..20 makes every correct process toss"
        first, tosses_first = self._traced_coin_run(seed)
        second, tosses_second = self._traced_coin_run(seed)
        assert all(tosses_first) and tosses_first == tosses_second
        assert first == second

    def test_default_coin_stream_is_isolated_from_stack_rng(self):
        """The default coin is *derived* from the stack RNG at build
        time, so later timing-dependent draws (reconnect jitter, tie
        breaks) cannot shift the coin sequence."""
        import random

        from repro.core.stack import Stack

        def tosses(extra_draws: int) -> list[int]:
            config = GroupConfig(4)
            dealer = TrustedDealer(4, seed=b"det")
            stack = Stack(
                config,
                0,
                outbox=lambda dest, data: None,
                keystore=dealer.keystore_for(0),
                rng=random.Random(99),
            )
            for _ in range(extra_draws):
                stack.rng.random()  # a runtime consuming jitter draws
            return [stack.toss_coin(("b",), r) for r in range(1, 33)]

        baseline = tosses(0)
        assert tosses(7) == baseline
        assert len(set(baseline)) == 2  # actually random bits, not constant

    def test_bare_local_coin_still_defaults_to_system_random(self):
        """Production fallback unchanged: LocalCoin() with no RNG is
        securely seeded (only the *stack default* derives from the seed)."""
        import random

        from repro.crypto.coin import LocalCoin

        assert isinstance(LocalCoin()._rng, random.SystemRandom)
        assert LocalCoin().common is False


class TestTickerLifecycle:
    def test_restart_cancels_old_incarnation_tickers(self):
        """Satellite 2: a ticker registered before a restart must never
        fire against the dead incarnation's stack."""
        sim = LanSimulation(n=4, seed=2)
        fired = []
        sim.add_ticker(2, 0.01, lambda: fired.append(sim.loop.now))
        sim.run(max_time=0.05)
        assert fired  # the ticker was live before the restart
        before = len(fired)
        sim.restart_process(2)
        sim.run(max_time=0.30)
        assert len(fired) == before

    def test_crash_cancels_tickers(self):
        sim = LanSimulation(
            n=4, seed=2, fault_plan=FaultPlan(crashed={2: 0.055})
        )
        fired = []
        sim.add_ticker(2, 0.01, lambda: fired.append(sim.loop.now))
        sim.run(max_time=0.30)
        assert fired
        assert all(t < 0.055 for t in fired)

    def test_new_incarnation_can_register_tickers(self):
        sim = LanSimulation(n=4, seed=2)
        sim.restart_process(2)
        fired = []
        sim.add_ticker(2, 0.01, lambda: fired.append(None))
        sim.run(max_time=0.05)
        assert fired


class TestTracerRewire:
    def test_restart_rebinds_clock_and_incarnation(self):
        """Satellite 4: a tracer created with a stale clock is rewired to
        the simulation clock on restart and stamps the new incarnation."""
        sim = LanSimulation(n=4, seed=3)
        tracer = Tracer()  # deliberately stale clock: always reports 0.0
        sim.stacks[2].stats.subscribe(tracer)
        for stack in sim.stacks:
            stack.create("rb", ("m",), sender=0)
        sim.stacks[0].instance_at(("m",)).broadcast(b"first-life")
        sim.run(max_time=1.0)
        pre = tracer.events()
        assert pre and all(event.time == 0.0 for event in pre)  # the skew
        assert all("incarnation" not in event.detail for event in pre)

        stack = sim.restart_process(2)
        assert (tracer, None) in stack.stats.subscriptions  # carried over, not dropped
        for s in sim.stacks:
            if s.instance_at(("m2",)) is None:
                s.create("rb", ("m2",), sender=0)
        sim.stacks[0].instance_at(("m2",)).broadcast(b"second-life")
        sim.run(max_time=2.0)
        post = tracer.events()[len(pre) :]
        assert post
        assert all(event.time > 0.0 for event in post)  # simulation clock
        assert all(event.detail.get("incarnation") == 1 for event in post)

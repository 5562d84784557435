"""Engine conformance: every registered binary-consensus engine must
pass the same battery.

The :class:`~repro.core.bc_engine.BCEngine` interface promises the
upper layers one contract -- propose a bit, agree on a bit, survive the
paper's faultloads -- regardless of algorithm.  This suite runs each
supported (engine, coin) pair through the engine-agnostic parts of the
bc unit battery (agreement, validity, crash faults, API edges), the
always-zero Byzantine attack, the byz-bc-split scenarios under the
invariant checker, a short explorer budget, and same-seed
byte-identity, so a new engine cannot merge without matching the
default engine's guarantees.
"""

import random

import pytest

from repro.core.bc_engine import BC_ENGINES, bc_engine_names, resolve_bc_engine
from repro.core.config import GroupConfig
from repro.core.errors import ConfigurationError, ProtocolViolationError
from repro.core.stack import ProtocolFactory, Stack
from repro.core.trace import Tracer
from repro.crypto.coin import LocalCoin
from repro.crypto.keys import TrustedDealer
from repro.eval.bc_compare import ENGINE_PAIRS, pair_config

from util import InstantNet, ShuffleNet, decisions_of

SCENARIO_BY_PAIR = {
    ("bracha", "local"): "byz-bc-split",
    ("bracha", "shared"): "byz-bc-split-shared",
    ("crain", "shared"): "byz-bc-split-crain",
}

pair_params = pytest.mark.parametrize(
    ("engine", "coin"), ENGINE_PAIRS, ids=[f"{e}+{c}" for e, c in ENGINE_PAIRS]
)


def run_bc(net, proposals, path=("bc",)):
    for pid, stack in enumerate(net.stacks):
        if pid in net.crashed:
            continue
        stack.create("bc", path)
    for pid, stack in enumerate(net.stacks):
        if pid in net.crashed:
            continue
        stack.instance_at(path).propose(proposals[pid])
    net.run()
    return decisions_of(net, path)


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert bc_engine_names() == ["bracha", "crain"]

    def test_unknown_engine_raises(self):
        with pytest.raises(ConfigurationError, match="registered"):
            resolve_bc_engine("nonesuch")

    def test_unknown_engine_rejected_at_stack_build(self):
        config = GroupConfig(4, bc_engine="nonesuch")
        with pytest.raises(ConfigurationError, match="nonesuch"):
            ProtocolFactory.default(config)

    def test_engine_names_match_registration(self):
        for name in bc_engine_names():
            assert BC_ENGINES[name].engine_name == name

    def test_bad_coin_knob_rejected(self):
        with pytest.raises(ConfigurationError, match="bc_coin"):
            GroupConfig(4, bc_coin="quantum")

    def test_crain_over_local_coin_rejected_by_config(self):
        with pytest.raises(ConfigurationError, match="common coin"):
            GroupConfig(4, bc_engine="crain", bc_coin="local")

    def test_common_coin_requirement_enforced_at_stack_build(self):
        """Even past the config check (explicit coin injection), the
        stack refuses a requires_common_coin engine over a local coin."""
        config = GroupConfig(4, bc_engine="crain", bc_coin="shared")
        dealer = TrustedDealer(4, seed=b"engines")
        with pytest.raises(ConfigurationError, match="common coin"):
            Stack(
                config,
                0,
                outbox=lambda dest, data: None,
                keystore=dealer.keystore_for(0),
                coin=LocalCoin(random.Random(1)),
            )

    def test_shared_coin_config_needs_dealt_coin(self):
        config = GroupConfig(4, bc_coin="shared")
        dealer = TrustedDealer(4, seed=b"engines")
        with pytest.raises(ConfigurationError, match="deal"):
            Stack(
                config,
                0,
                outbox=lambda dest, data: None,
                keystore=dealer.keystore_for(0),
            )


@pair_params
class TestAgreementValidity:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_unanimous_proposal_decides_that_bit(self, engine, coin, bit):
        net = InstantNet(config=pair_config(engine, coin))
        assert run_bc(net, [bit] * 4) == [bit] * 4

    @pytest.mark.parametrize("proposals", [[0, 0, 0, 1], [1, 0, 1, 1], [0, 1, 0, 1]])
    def test_mixed_proposals_agree(self, engine, coin, proposals):
        net = InstantNet(config=pair_config(engine, coin))
        decisions = run_bc(net, proposals)
        assert len(set(decisions)) == 1
        assert decisions[0] in (0, 1)

    def test_agreement_on_shuffled_schedules(self, engine, coin):
        for seed in range(12):
            net = ShuffleNet(config=pair_config(engine, coin), seed=seed)
            decisions = run_bc(net, [seed % 2, (seed + 1) % 2, 1, 0])
            assert len(set(decisions)) == 1, f"seed {seed}: {decisions}"

    def test_unanimity_respected_on_shuffled_schedules(self, engine, coin):
        for seed in range(8):
            net = ShuffleNet(config=pair_config(engine, coin), seed=seed)
            assert run_bc(net, [1, 1, 1, 1]) == [1, 1, 1, 1], f"seed {seed}"

    def test_larger_group_n7(self, engine, coin):
        net = InstantNet(config=pair_config(engine, coin, n=7))
        decisions = run_bc(net, [1, 0, 1, 0, 1, 0, 1])
        assert len(set(decisions)) == 1

    def test_engine_name_visible_in_inspect(self, engine, coin):
        net = InstantNet(config=pair_config(engine, coin))
        run_bc(net, [1, 1, 1, 1])
        view = net.stacks[0].instance_at(("bc",)).inspect()
        assert view["engine"] == engine
        assert view["decided"] is True
        assert view["decision"] == 1


@pair_params
class TestCrashFaults:
    def test_one_crashed_from_start(self, engine, coin):
        net = InstantNet(config=pair_config(engine, coin), crashed={3})
        assert run_bc(net, [1, 1, 1, 1]) == [1, 1, 1]

    def test_crashed_with_mixed_proposals(self, engine, coin):
        for seed in range(6):
            net = ShuffleNet(config=pair_config(engine, coin), seed=seed, crashed={0})
            decisions = run_bc(net, [0, 1, 0, 1])
            assert len(set(decisions)) == 1, f"seed {seed}"


@pair_params
class TestApi:
    def test_out_of_domain_proposal_rejected(self, engine, coin):
        net = InstantNet(config=pair_config(engine, coin))
        bc = net.stacks[0].create("bc", ("bc",))
        with pytest.raises(ValueError):
            bc.propose(2)
        with pytest.raises(ValueError):
            bc.propose(None)

    def test_double_proposal_rejected(self, engine, coin):
        net = InstantNet(config=pair_config(engine, coin))
        bc = net.stacks[0].create("bc", ("bc",))
        bc.propose(1)
        with pytest.raises(ProtocolViolationError):
            bc.propose(0)

    def test_direct_frames_rejected(self, engine, coin):
        from repro.core.wire import encode_frame

        net = InstantNet(config=pair_config(engine, coin))
        net.stacks[0].create("bc", ("bc",))
        net.stacks[0].receive(1, encode_frame(("bc",), 0, 1))
        assert net.stacks[0].stats.dropped["protocol-violation"] == 1

    def test_decision_recorded_in_stats(self, engine, coin):
        net = InstantNet(config=pair_config(engine, coin))
        run_bc(net, [1, 1, 1, 1])
        stats = net.stacks[0].stats
        assert stats.decisions["bc"] == 1

    def test_decision_delivered_once(self, engine, coin):
        net = InstantNet(config=pair_config(engine, coin))
        events = []
        for pid, stack in enumerate(net.stacks):
            bc = stack.create("bc", ("bc",))
            if pid == 0:
                bc.on_deliver = lambda _i, v: events.append(v)
        for stack in net.stacks:
            stack.instance_at(("bc",)).propose(1)
        net.run()
        assert events == [1]


@pair_params
class TestByzantine:
    def test_always_zero_attacker_cannot_break_validity(self, engine, coin):
        """Three correct processes propose 1; the always-zero attacker's
        unbacked zeros must never reach a decision (n=4, f=1)."""
        from repro.adversary.strategies import byzantine_paper_faultload

        for seed in range(6):
            config = pair_config(engine, coin)
            honest = ProtocolFactory.default(config)
            net = ShuffleNet(
                config=config, seed=seed, factories={3: byzantine_paper_faultload(honest)}
            )
            decisions = run_bc(net, [1, 1, 1, 1])
            assert decisions[:3] == [1, 1, 1], f"seed {seed}: {decisions}"

    def test_attacker_variant_derives_from_configured_engine(self, engine, coin):
        from repro.adversary.strategies import byzantine_paper_faultload

        config = pair_config(engine, coin)
        honest = ProtocolFactory.default(config)
        attacked = byzantine_paper_faultload(honest)
        variant = attacked.resolve("bc")
        assert issubclass(variant, honest.resolve("bc"))
        assert variant.engine_name == engine


@pair_params
class TestScenarioSweep:
    def test_byz_bc_split_scenario_invariants(self, engine, coin):
        """The engine's byz-bc-split variant runs clean under the full
        invariant checker (agreement, validity, step-3 uniqueness,
        coin legality)."""
        from repro.check.explore import run_one
        from repro.check.scenarios import SCENARIOS

        scenario = SCENARIOS[SCENARIO_BY_PAIR[(engine, coin)]]
        for seed in range(3):
            result = run_one(scenario, seed=seed, tie_break_seed=None)
            assert result["outcome"] == "ok", result

    def test_short_explore_budget_clean(self, engine, coin):
        from repro.check.explore import explore
        from repro.check.scenarios import SCENARIOS

        scenario = SCENARIOS[SCENARIO_BY_PAIR[(engine, coin)]]
        assert explore(scenario, 3) is None


@pair_params
class TestDeterminism:
    def _traced_run(self, engine, coin, seed):
        from repro.check.scenarios import SCENARIOS

        scenario = SCENARIOS[SCENARIO_BY_PAIR[(engine, coin)]]
        sim = scenario.build(seed, seed, 1e-4)
        tracers = []
        for stack in sim.stacks:
            tracer = Tracer(clock=lambda: sim.loop.now)
            stack.stats.subscribe(tracer)
            tracers.append(tracer)
        scenario.apply_ops(sim, scenario.ops)
        sim.run(max_time=scenario.max_time)
        return "\n".join(tracer.render() for tracer in tracers)

    def test_same_seed_runs_byte_identical(self, engine, coin):
        first = self._traced_run(engine, coin, 5)
        second = self._traced_run(engine, coin, 5)
        assert first  # the run actually traced something
        assert first == second

    def test_different_seeds_diverge(self, engine, coin):
        assert self._traced_run(engine, coin, 5) != self._traced_run(engine, coin, 6)


class TestHeadToHead:
    """The acceptance comparison: under the byz-bc-split workload
    (split proposals + always-zero attacker) the local-coin engine's
    rounds-to-decide has a visible tail while both shared-coin pairs
    stay bounded.  Seeds are fixed, so the distributions are exact."""

    SAMPLES = 40

    def _dist(self, engine, coin):
        from repro.eval.bc_compare import rounds_distribution

        return rounds_distribution(engine, coin, samples=self.SAMPLES, attacker=True)

    def test_local_coin_has_a_rounds_tail(self):
        dist = self._dist("bracha", "local")
        assert sum(dist.values()) == self.SAMPLES  # everyone decided
        assert sum(c for r, c in dist.items() if r > 2) > 0

    def test_shared_coin_bracha_is_bounded(self):
        dist = self._dist("bracha", "shared")
        assert sum(dist.values()) == self.SAMPLES
        # One coin round after any disagreement suffices.
        assert max(dist) <= 2

    def test_crain_bounded_in_expectation(self):
        dist = self._dist("crain", "shared")
        assert sum(dist.values()) == self.SAMPLES
        mean = sum(r * c for r, c in dist.items()) / self.SAMPLES
        # 1 + E[geometric(1/2)] ~ 3; schedule-independent, unlike the
        # local coin whose tail the adversarial schedule can stretch.
        assert mean < 4.0


class TestMetrics:
    def _metered_net(self, engine, coin, proposals, *, seed=0, shuffle=False):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.stack_metrics import StackMetrics

        cls = ShuffleNet if shuffle else InstantNet
        net = cls(config=pair_config(engine, coin), seed=seed)
        net.registries = [
            StackMetrics.attach(stack, MetricsRegistry()).registry for stack in net.stacks
        ]
        run_bc(net, proposals)
        return net

    @pair_params
    def test_rounds_to_decide_histogram_labeled_per_engine(self, engine, coin):
        net = self._metered_net(engine, coin, [1, 1, 1, 1])
        metric = [
            m
            for m in net.registries[0].metrics()
            if m.name == "ritas_bc_rounds_to_decide"
        ]
        assert len(metric) == 1
        assert dict(metric[0].labels)["engine"] == engine
        assert metric[0].count == 1

    def test_coin_total_counts_at_toss_time(self):
        """Satellite: the coin counter must tick for *every* toss, not
        only when the coin value is adopted as the next estimate."""
        # Schedule seed 3 drives a split-vote step 3 into the coin
        # branch (4 tosses across the group, verified).
        net = self._metered_net("bracha", "local", [0, 1, 0, 1], seed=3, shuffle=True)
        tossed = sum(
            len(stack.instance_at(("bc",))._coin_rounds) for stack in net.stacks
        )
        counted = sum(
            m.value
            for registry in net.registries
            for m in registry.metrics()
            if m.name == "ritas_bc_coin_total"
        )
        assert tossed > 0
        assert counted == tossed

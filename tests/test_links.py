"""Unit coverage for :mod:`repro.net.links` -- the per-link behavior catalog.

Behaviors are tested directly against a seeded ``random.Random`` (the
contract hands them one), then :class:`LinkModel`'s seeding and
overrides, then the two matrix builders, and finally the property
the per-link RNG design exists for: traffic on one link must not
perturb the randomness another link sees.
"""

import random

import pytest

from repro.net.links import (
    Chain,
    Degrading,
    Delay,
    Duplicating,
    FlakyMac,
    LinkBehavior,
    LinkModel,
    Lossy,
    Reordering,
    latency_matrix,
    zoned_matrix,
)
from repro.net.network import LanSimulation


def _draw(behavior, rng=None, now=0.0):
    return behavior.deliveries(
        rng or random.Random(1), src=0, dest=1, size=100, now=now
    )


class TestBehaviors:
    def test_perfect_link_is_the_default(self):
        assert _draw(LinkBehavior()) == [(0.0, False)]

    def test_delay_adds_base_plus_bounded_jitter(self):
        assert _draw(Delay(base_s=0.01)) == [(0.01, False)]
        for _ in range(50):
            [(extra, corrupt)] = _draw(Delay(base_s=0.01, jitter_s=0.002))
            assert not corrupt
            assert 0.01 <= extra <= 0.012

    def test_lossy_is_delay_never_silence(self):
        assert _draw(Lossy(p=0.0)) == [(0.0, False)]
        for _ in range(50):
            copies = _draw(Lossy(p=0.4, rto_s=0.02))
            assert len(copies) == 1  # reliable channel: exactly one arrival
            assert copies[0][0] >= 0.0
        # p=1.0 hits the retransmission cap instead of looping forever:
        # 16 doubling RTOs, summed.
        [(delay, _)] = _draw(Lossy(p=1.0, rto_s=0.01))
        assert delay == pytest.approx(0.01 * (2**16 - 1))

    def test_duplicating_echoes_a_second_copy(self):
        assert _draw(Duplicating(p=0.0)) == [(0.0, False)]
        assert _draw(Duplicating(p=1.0, echo_delay_s=0.003)) == [
            (0.0, False),
            (0.003, False),
        ]

    def test_reordering_detours_within_spread(self):
        assert _draw(Reordering(p=0.0)) == [(0.0, False)]
        [(extra, corrupt)] = _draw(Reordering(p=1.0, spread_s=0.005))
        assert not corrupt
        assert 0.0 <= extra <= 0.005

    def test_flaky_mac_corrupts_then_retransmits_clean(self):
        assert _draw(FlakyMac(p=0.0)) == [(0.0, False)]
        assert _draw(FlakyMac(p=1.0, rto_s=0.01)) == [(0.0, True), (0.01, False)]

    def test_degrading_ramps_then_plateaus(self):
        link = Degrading(start_s=10.0, ramp_s=4.0, max_extra_s=0.008)
        assert _draw(link, now=5.0) == [(0.0, False)]
        assert _draw(link, now=12.0) == [(0.004, False)]
        assert _draw(link, now=100.0) == [(0.008, False)]
        # Degenerate ramp: instantly at the plateau.
        assert _draw(Degrading(ramp_s=0.0, max_extra_s=0.002), now=0.0) == [
            (0.002, False)
        ]

    def test_chain_sums_delays_ors_corruption_multiplies_copies(self):
        link = Chain((Delay(base_s=0.01), FlakyMac(p=1.0, rto_s=0.002)))
        assert _draw(link) == [(0.01, True), (0.012, False)]
        # Duplication behind loss duplicates the retransmitted copy too.
        link = Chain((Duplicating(p=1.0, echo_delay_s=0.005), Duplicating(p=1.0)))
        assert len(_draw(link)) == 4


class TestLinkModel:
    def test_must_bind_before_use(self):
        with pytest.raises(RuntimeError, match="bind"):
            LinkModel().deliveries(0, 1, 100, 0.0)

    def test_same_seed_same_draws(self):
        def trace(seed):
            model = LinkModel(default=Delay(jitter_s=0.01)).bind(seed)
            return [model.deliveries(0, 1, 100, 0.0) for _ in range(20)]

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)

    def test_links_draw_from_independent_streams(self):
        model_a = LinkModel(default=Delay(jitter_s=0.01)).bind(7)
        model_b = LinkModel(default=Delay(jitter_s=0.01)).bind(7)
        # Model B carries heavy unrelated traffic on 2->3 interleaved
        # with the draws on 0->1; 0->1 must not notice.
        draws_a = [model_a.deliveries(0, 1, 100, 0.0) for _ in range(10)]
        draws_b = []
        for _ in range(10):
            model_b.deliveries(2, 3, 100, 0.0)
            draws_b.append(model_b.deliveries(0, 1, 100, 0.0))
            model_b.deliveries(2, 3, 100, 0.0)
        assert draws_a == draws_b

    def test_overrides_and_slowdowns(self):
        model = LinkModel(
            default=Duplicating(p=1.0),
            behaviors={(0, 1): Delay(base_s=0.01)},
            host_slowdowns={2: 100.0},
        )
        model.bind(3)
        assert model.cpu_factor(2) == 100.0
        assert model.cpu_factor(0) == 1.0
        assert model.deliveries(0, 1, 100, 0.0) == [(0.01, False)]
        assert len(model.deliveries(1, 0, 100, 0.0)) == 2

    def test_rebind_resets_streams(self):
        model = LinkModel(default=Delay(jitter_s=0.01))
        model.bind(7)
        first = model.deliveries(0, 1, 100, 0.0)
        model.bind(7)
        assert model.deliveries(0, 1, 100, 0.0) == first


class TestMatrixBuilders:
    def test_latency_matrix_maps_per_link_delays(self):
        model = latency_matrix([[0, 0.001], [0.002, 0]], jitter_s=0.0)
        model.bind(1)
        assert model.deliveries(0, 1, 100, 0.0) == [(0.001, False)]
        assert model.deliveries(1, 0, 100, 0.0) == [(0.002, False)]

    def test_zoned_matrix_is_cheap_inside_expensive_across(self):
        model = zoned_matrix(((0, 1), (2, 3)), intra_s=1e-4, inter_s=0.02)
        model.bind(1)
        assert model.deliveries(0, 1, 100, 0.0) == [(1e-4, False)]
        assert model.deliveries(1, 0, 100, 0.0) == [(1e-4, False)]
        assert model.deliveries(2, 3, 100, 0.0) == [(1e-4, False)]
        assert model.deliveries(0, 2, 100, 0.0) == [(0.02, False)]
        assert model.deliveries(3, 1, 100, 0.0) == [(0.02, False)]

    def test_zoned_matrix_rejects_empty_zones(self):
        with pytest.raises(ValueError):
            zoned_matrix(())


class TestSimulatorJitterStreams:
    def test_jitter_draws_are_per_link_streams(self):
        """The satellite-1 regression: jitter on one link is a seeded
        per-link stream, so draws for unrelated links interleaved in any
        order never change what the observed link sees."""
        sim_a = LanSimulation(n=4, seed=11, jitter_s=0.005)
        sim_b = LanSimulation(n=4, seed=11, jitter_s=0.005)
        draws_a = [sim_a._link_jitter(0, 1) for _ in range(10)]
        draws_b = []
        for _ in range(10):
            sim_b._link_jitter(2, 3)  # unrelated cross traffic
            draws_b.append(sim_b._link_jitter(0, 1))
            sim_b._link_jitter(1, 0)  # even the reverse direction
        assert draws_a == draws_b
        assert all(0.0 <= draw <= 0.005 for draw in draws_a)
        # A different seed produces a different stream.
        sim_c = LanSimulation(n=4, seed=12, jitter_s=0.005)
        assert [sim_c._link_jitter(0, 1) for _ in range(10)] != draws_a

    def test_jittered_faulty_run_is_deterministic(self):
        """Same seed, same link model, same workload => identical
        delivery timeline, even with jitter, loss, and duplication in
        the mix."""

        def timeline():
            sim = LanSimulation(
                n=4,
                seed=11,
                jitter_s=0.002,
                link_model=LinkModel(
                    default=Chain((Lossy(p=0.1, rto_s=0.005), Duplicating(p=0.2)))
                ),
            )
            seen = []
            for pid in range(4):
                ab = sim.stacks[pid].create("ab", ("a",))
                if pid == 0:
                    ab.on_deliver = lambda _i, d: seen.append(
                        (sim.now, bytes(d.payload))
                    )
            for pid in range(4):
                sim.stacks[pid].instance_at(("a",)).broadcast(b"m%d" % pid)
            reason = sim.run(until=lambda: len(seen) >= 4, max_time=60)
            assert reason == "until"
            return seen

        assert timeline() == timeline()

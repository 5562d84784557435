"""Group-wide conservation laws of the channel.

In a failure-free run that is allowed to quiesce, every logical frame
sent by some process is received by some process -- batching changes the
wire encoding, never the logical frame counts -- and every queue the obs
layer watches drains back to zero.
"""

import pytest

from repro import GroupConfig, LanSimulation
from repro.core.stats import StackStats

#: Gauges that must read zero once the group has quiesced (levels, not
#: totals: anything nonzero here is work stuck in flight).
QUIESCENT_GAUGES = (
    "ritas_send_queue_frames",
    "ritas_send_queue_bytes",
    "ritas_ooc_pending",
    "ritas_ooc_bytes",
    "ritas_ab_pending_local",
)


def _run_to_quiescence(batching: bool, k: int = 12, n: int = 4, seed: int = 7):
    sim = LanSimulation(GroupConfig(n, batching=batching), seed=seed)
    sim.enable_metrics()
    for pid in sim.config.process_ids:
        sim.stacks[pid].create("ab", ("law",))
    for pid in sim.config.process_ids:
        ab = sim.stacks[pid].instance_at(("law",))
        with sim.stacks[pid].coalesce():
            for index in range(k // n):
                ab.broadcast(b"conserve-%d-%d" % (pid, index))
    # No `until` predicate: run until the event queue holds nothing but
    # housekeeping, i.e. the group has quiesced.
    sim.run(max_time=300.0)
    assert sim.stacks[0].instance_at(("law",)).delivered_count >= k
    sim.sample_metrics()
    return sim


@pytest.mark.parametrize("batching", [True, False], ids=["batched", "unbatched"])
class TestConservation:
    def test_frames_and_bytes_conserved(self, batching):
        sim = _run_to_quiescence(batching)
        combined = StackStats()
        for pid in sim.config.process_ids:
            combined.merge(sim.stacks[pid].stats)
        assert combined.frames_sent > 0
        assert combined.frames_sent == combined.frames_received
        assert combined.bytes_sent == combined.bytes_received
        assert sum(combined.dropped.values()) == 0

    def test_batch_containers_conserved(self, batching):
        sim = _run_to_quiescence(batching)
        combined = StackStats()
        for pid in sim.config.process_ids:
            combined.merge(sim.stacks[pid].stats)
        # Containers come from two coalescing stages: the stacks' flush
        # windows (batches_sent) and the simulated link layer
        # (link_batches).  A link batch splices in the members of every
        # stack container it carries (link_containers_spliced), so those
        # are never opened on their own; every other container is opened
        # exactly once on the receive side, and each spliced container
        # stands as one of the link batch's units but is no member.
        spliced = sim.link_containers_spliced
        assert (
            combined.batches_received
            == combined.batches_sent + sim.link_batches - spliced
        )
        assert (
            combined.frames_decoalesced
            == combined.frames_coalesced + sim.link_frames_coalesced - spliced
        )
        if batching:
            assert combined.batches_received > 0
            assert spliced > 0
        else:
            assert combined.batches_received == 0

    def test_obs_gauges_zero_after_quiescence(self, batching):
        sim = _run_to_quiescence(batching)
        for registry in sim.metric_registries():
            for metric in registry.metrics():
                if metric.name in QUIESCENT_GAUGES:
                    assert metric.value == 0, (
                        metric.name,
                        dict(metric.labels),
                        metric.value,
                    )

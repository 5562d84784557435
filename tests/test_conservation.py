"""Group-wide conservation laws of the channel.

In a failure-free run that is allowed to quiesce, every logical frame
sent by some process is received by some process -- batching changes the
wire encoding, never the logical frame counts -- and every queue the obs
layer watches drains back to zero.
"""

import asyncio
import time

import pytest

from repro import GroupConfig, LanSimulation
from repro.core.stats import StackStats

from util import make_group_nodes, start_tcp_group

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
        # The simulated link buffers are the only coalescing stage: every
        # container they build is opened exactly once on the receive side.
        assert combined.batches_received == sim.link_batches
        assert combined.frames_decoalesced == sim.link_frames_coalesced
        if batching:
            assert combined.batches_received > 0
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


class TestTcpConservation:
    def test_link_containers_opened_once(self):
        """On real TCP too, each node's link flush is the only place a
        container is built: the group opens exactly the containers and
        frames its links batched."""

        async def scenario():
            nodes = make_group_nodes(GroupConfig(4))
            await start_tcp_group(nodes)
            try:
                abs_ = [node.stack.create("ab", ("law",)) for node in nodes]
                for ab, node in zip(abs_, nodes):
                    with node.stack.coalesce():
                        for index in range(8):
                            ab.broadcast(b"conserve-%d" % index)
                stacks = [node.stack for node in nodes]
                deadline = time.monotonic() + 20.0
                # Quiescent once every logical frame sent was received.
                while not (
                    all(ab.delivered_count == 32 for ab in abs_)
                    and sum(s.stats.frames_sent for s in stacks)
                    == sum(s.stats.frames_received for s in stacks)
                ):
                    assert time.monotonic() < deadline, "the group never quiesced"
                    await asyncio.sleep(0.02)
                assert sum(s.stats.batches_received for s in stacks) == sum(
                    node.batches_sent for node in nodes
                )
                assert sum(s.stats.frames_decoalesced for s in stacks) == sum(
                    node.frames_batched for node in nodes
                )
                assert sum(node.batches_sent for node in nodes) > 0
            finally:
                for node in nodes:
                    await node.close()

        asyncio.run(scenario())

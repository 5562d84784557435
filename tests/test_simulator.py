"""The discrete-event loop and the LAN timing model."""

import math

import pytest

from repro.net.network import LAN_2006, LanSimulation, NetworkParameters
from repro.net.simulator import EventLoop


class TestEventLoop:
    def test_runs_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(0.3, order.append, "c")
        loop.schedule(0.1, order.append, "a")
        loop.schedule(0.2, order.append, "b")
        assert loop.run() == "idle"
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_schedule_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(0.1, order.append, 1)
        loop.schedule(0.1, order.append, 2)
        loop.run()
        assert order == [1, 2]

    def test_now_advances(self):
        loop = EventLoop()
        seen = []
        loop.schedule(0.5, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [0.5]
        assert loop.now == 0.5

    def test_nested_scheduling(self):
        loop = EventLoop()
        seen = []
        loop.schedule(0.1, lambda: loop.schedule(0.1, lambda: seen.append(loop.now)))
        loop.run()
        assert seen == [pytest.approx(0.2)]

    def test_until_predicate_stops(self):
        loop = EventLoop()
        count = []
        for _ in range(10):
            loop.schedule(0.1, count.append, 1)
        reason = loop.run(until=lambda: len(count) >= 3)
        assert reason == "until"
        assert len(count) == 3

    def test_max_time_stops_before_event(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, fired.append, 1)
        assert loop.run(max_time=0.5) == "max_time"
        assert fired == []
        assert loop.pending() == 1

    def test_max_events(self):
        loop = EventLoop()
        for _ in range(10):
            loop.schedule(0.1, lambda: None)
        assert loop.run(max_events=4) == "max_events"
        assert loop.pending() == 6

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule_at(0.5, lambda: None)

    def test_events_processed_counter(self):
        loop = EventLoop()
        for _ in range(5):
            loop.schedule(0.1, lambda: None)
        loop.run()
        assert loop.events_processed == 5


class TestTimingModel:
    def test_loopback_faster_than_network(self):
        sim = LanSimulation(n=4, seed=0)
        times = {}

        def record(tag):
            times[tag] = sim.loop.now

        sim.stacks[0].send_frame(0, ("t",), 0, b"x")  # loopback
        sim.stacks[0].send_frame(1, ("t",), 0, b"x")  # over the wire
        arrivals = []
        sim._deliver_orig = None
        # Drain and inspect by timestamps on events instead: run to idle
        # and compare times via frames_delivered bookkeeping.
        sim.run()
        # Loopback cost is local_delivery_s; wire cost includes switch.
        assert sim.params.local_delivery_s < sim.params.switch_latency_s

    def test_ipsec_increases_wire_bytes(self):
        with_ipsec = LanSimulation(n=4, seed=0, ipsec=True)
        without = LanSimulation(n=4, seed=0, ipsec=False)
        assert (
            with_ipsec.frame_wire_bytes(10)
            == without.frame_wire_bytes(10) + LAN_2006.ipsec_ah_bytes
        )

    def test_frame_wire_bytes_matches_paper_example(self):
        """The paper: a 10-byte payload is an 80-byte frame, +24 with AH."""
        sim = LanSimulation(n=4, seed=0, ipsec=False)
        assert sim.frame_wire_bytes(10) == 80
        sim = LanSimulation(n=4, seed=0, ipsec=True)
        assert sim.frame_wire_bytes(10) == 104

    def test_crashed_process_sends_nothing(self):
        from repro.net.faults import FaultPlan

        sim = LanSimulation(n=4, seed=0, fault_plan=FaultPlan.fail_stop(0))
        sim.stacks[0].send_frame(1, ("t",), 0, b"x")
        sim.run()
        assert sim.frames_delivered == 0

    def test_messages_to_crashed_process_dropped(self):
        from repro.net.faults import FaultPlan

        sim = LanSimulation(n=4, seed=0, fault_plan=FaultPlan.fail_stop(1))
        sim.stacks[0].send_frame(1, ("t",), 0, b"x")
        sim.run()
        assert sim.frames_delivered == 0
        assert sim.frames_dropped_crash == 1

    def test_late_crash_allows_earlier_traffic(self):
        from repro.net.faults import FaultPlan

        sim = LanSimulation(n=4, seed=0, fault_plan=FaultPlan(crashed={1: 0.5}))
        sim.stacks[0].send_frame(1, ("t",), 0, b"x")
        sim.run()
        assert sim.frames_delivered == 1

    def test_deterministic_across_runs(self):
        def run_once():
            sim = LanSimulation(n=4, seed=42)
            done = []
            for pid, stack in enumerate(sim.stacks):
                rb = stack.create("rb", ("d",), sender=0)
                rb.on_deliver = lambda _i, v: done.append(sim.now)
            sim.stacks[0].instance_at(("d",)).broadcast(b"m")
            sim.run(until=lambda: len(done) == 4)
            return done

        assert run_once() == run_once()

    def test_per_pair_fifo_order(self):
        """Frames on the same (src, dst) pair arrive in send order.

        With batching on, back-to-back frames may share a batch
        container; order must hold across and within batches."""
        from repro.core.wire import decode_batch_views, is_batch

        sim = LanSimulation(n=4, seed=0)
        arrived = []
        sim.stacks[1].receive = lambda src, data: arrived.append(data)
        sim.stacks[0].send_frame(1, ("t",), 0, b"first")
        sim.stacks[0].send_frame(1, ("t",), 0, b"second" * 100)
        sim.stacks[0].send_frame(1, ("t",), 0, b"third")
        sim.run()
        decoded = []
        for unit in arrived:
            decoded.extend(
                [bytes(m) for m in decode_batch_views(unit)] if is_batch(unit) else [unit]
            )
        assert len(decoded) == 3
        assert b"first" in decoded[0]
        assert b"third" in decoded[2]

    def test_per_pair_fifo_order_unbatched(self):
        """Batching off: every frame is its own channel unit, in order."""
        from repro.core.config import GroupConfig

        sim = LanSimulation(GroupConfig(4, batching=False), seed=0)
        arrived = []
        sim.stacks[1].receive = lambda src, data: arrived.append(data)
        sim.stacks[0].send_frame(1, ("t",), 0, b"first")
        sim.stacks[0].send_frame(1, ("t",), 0, b"second" * 100)
        sim.stacks[0].send_frame(1, ("t",), 0, b"third")
        sim.run()
        assert len(arrived) == 3
        assert b"first" in arrived[0]
        assert b"third" in arrived[2]

    def test_with_overrides(self):
        params = NetworkParameters().with_overrides(cpu_send_s=1e-3)
        assert params.cpu_send_s == 1e-3
        assert params.cpu_recv_s == NetworkParameters().cpu_recv_s

    def test_requires_config_or_n(self):
        with pytest.raises(ValueError):
            LanSimulation()

    def test_jitter_changes_timing_not_outcome(self):
        def run_once(jitter):
            sim = LanSimulation(n=4, seed=9, jitter_s=jitter)
            done = []
            for pid, stack in enumerate(sim.stacks):
                rb = stack.create("rb", ("d",), sender=0)
                rb.on_deliver = lambda _i, v: done.append(v)
            sim.stacks[0].instance_at(("d",)).broadcast(b"m")
            sim.run(until=lambda: len(done) == 4)
            return done, sim.now

        base, t_base = run_once(0.0)
        jittered, t_jit = run_once(0.002)
        assert base == jittered
        assert not math.isclose(t_base, t_jit)

"""The simulated LAN and the per-process simulation harness.

The timing model reproduces the *shape* of the paper's measurements
(Section 4) without the original hardware.  One message from host A to
host B passes through four FIFO resources:

1. **A's CPU** -- a fixed per-message send cost plus a per-byte cost
   (protocol bookkeeping, buffer copies, checksums); the dominant term
   on the testbed's 500 MHz Pentium IIIs.
2. **A's NIC** -- serialization of the full frame at link rate.
3. **the switch** -- store-and-forward latency, then serialization onto
   B's (shared) downlink, which is where inter-process *contention*
   appears -- and why the paper's fail-stop runs are faster than
   failure-free ones.
4. **B's CPU** -- per-message receive cost plus per-byte cost, after
   which the frame enters B's stack.

IPSec AH (when enabled) adds 24 bytes to every frame plus a fixed and a
per-byte hashing cost at each end, exactly the decomposition the paper
gives for Table 1's overhead column.

The unit these costs apply to is one *channel unit* -- whatever blob
the stack hands its outbox.  When batching is on, a batch of coalesced
frames is one unit, so the fixed costs (``cpu_send_s``,
``header_bytes``, ``ipsec_cpu_fixed_s``, switch latency) are paid once
per batch rather than once per frame; only the per-byte terms keep
scaling with the frames inside.  That is precisely the lever the
paper's fixed-cost analysis identifies as dominating LAN latency.

Each resource keeps a scalar "busy until" horizon, so scheduling a
message is O(1) and the whole model is deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from repro.core.config import GroupConfig
from repro.core.sendq import BoundedSendQueue
from repro.core.stack import ProtocolFactory, Stack
from repro.core.trace import KIND_SHED
from repro.core.wire import SEND_BATCH_FRAMES, encode_batch, is_batch
from repro.crypto.coin import SharedCoinDealer
from repro.crypto.keys import TrustedDealer
from repro.net.faults import FaultPlan
from repro.net.links import LinkModel
from repro.net.simulator import EventLoop, PeriodicHandle
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class NetworkParameters:
    """Calibrated constants of the timing model (all times in seconds)."""

    bandwidth_bps: float = 100e6
    switch_latency_s: float = 500e-6  # per-hop fixed latency incl. kernel wakeups
    header_bytes: int = 70  # Ethernet + IP + TCP (a 10-byte payload -> 80-byte frame)
    cpu_send_s: float = 26e-6
    cpu_recv_s: float = 24e-6
    cpu_per_byte_s: float = 12e-9
    local_delivery_s: float = 5e-6  # self-addressed messages skip the wire
    ipsec_ah_bytes: int = 24
    ipsec_cpu_fixed_s: float = 6e-6  # per frame, per end
    ipsec_cpu_per_byte_s: float = 50e-9  # SHA-1 on a 500 MHz PIII, per end

    def with_overrides(self, **overrides: float) -> "NetworkParameters":
        return replace(self, **overrides)


#: Calibrated against the paper's testbed: 4x Pentium III 500 MHz,
#: 100 Mbps HP ProCurve switch, Linux 2.6.5, ~9.1 MB/s measured goodput.
LAN_2006 = NetworkParameters()

#: A rough wide-area variant (Section 4.2 predicts the one-round
#: behaviour may not survive asymmetric latencies): higher, *asymmetric*
#: propagation delay is injected per link by LanSimulation when this
#: preset is used.
WAN_EMULATED = NetworkParameters(
    switch_latency_s=20e-3,
    cpu_send_s=5e-6,
    cpu_recv_s=5e-6,
    cpu_per_byte_s=1e-9,
)


class _Resource:
    """A FIFO serializer: tracks when it next becomes free."""

    __slots__ = ("free_at",)

    def __init__(self) -> None:
        self.free_at = 0.0

    def acquire(self, earliest: float, duration: float) -> float:
        """Occupy the resource for *duration* starting no earlier than
        *earliest*; returns the completion time."""
        start = earliest if earliest > self.free_at else self.free_at
        self.free_at = start + duration
        return self.free_at


class _Host:
    """The simulated resources of one machine."""

    __slots__ = ("cpu", "nic_out", "nic_in")

    def __init__(self) -> None:
        self.cpu = _Resource()
        self.nic_out = _Resource()
        self.nic_in = _Resource()


class LanSimulation:
    """n processes, one per simulated host, on a switched LAN.

    Args:
        config: group description (or build one with ``n=...``).
        params: timing model constants.
        ipsec: model the IPSec AH overhead (Table 1 contrasts both).
        seed: master seed; per-process RNGs and the key dealer derive
            from it, so runs are bit-for-bit reproducible.
        fault_plan: crashes and Byzantine substitutions to apply.
        jitter_s: uniform random extra latency added per message --
            zero keeps the LAN perfectly symmetric like the paper's
            testbed; a WAN-style run sets this high.  Draws come from a
            *per-link* seeded RNG, so the delays one link sees never
            depend on traffic order across unrelated links.
        tie_break_seed: when given, same-time simulator events execute
            in an order drawn from an RNG seeded on this value instead
            of insertion order (still deterministic per seed); the
            schedule explorer in :mod:`repro.check` sweeps this to
            reach interleavings a fixed order never produces.
        link_model: a :class:`~repro.net.links.LinkModel` of per-link
            behaviors (asymmetric latency, loss-as-retransmit,
            duplication, reordering, detectable corruption) and
            per-host CPU slowdown factors.  Bound to *seed* here; the
            default ``None`` keeps the seed-exact symmetric LAN.
        loop: an existing :class:`~repro.net.simulator.EventLoop` to
            schedule on instead of building a private one.  Several
            simulations sharing one loop advance in a single global
            virtual-time order -- how :class:`repro.shard` runs S
            independent groups side by side.  Mutually exclusive with
            ``tie_break_seed`` (the loop owner decides tie-breaking).
        hosts: existing per-process :class:`_Host` resource bundles to
            contend on instead of fresh ones.  Passing another
            simulation's hosts colocates both groups on the same
            machines: their traffic shares CPU/NIC serialization, the
            honest model for S shards on one box.
    """

    def __init__(
        self,
        config: GroupConfig | None = None,
        *,
        n: int | None = None,
        params: NetworkParameters = LAN_2006,
        ipsec: bool = True,
        seed: int = 0,
        fault_plan: FaultPlan | None = None,
        jitter_s: float = 0.0,
        tie_break_seed: int | None = None,
        base_factory: ProtocolFactory | None = None,
        link_model: LinkModel | None = None,
        loop: EventLoop | None = None,
        hosts: "list[_Host] | None" = None,
    ):
        if config is None:
            if n is None:
                raise ValueError("pass either a GroupConfig or n=...")
            config = GroupConfig(n)
        self.config = config
        self.params = params
        self.ipsec = ipsec
        self.seed = seed
        self.fault_plan = fault_plan or FaultPlan.failure_free()
        self.fault_plan.validate(config.num_processes, config.num_faulty)
        self.jitter_s = jitter_s
        self.tie_break_seed = tie_break_seed
        if loop is not None:
            if tie_break_seed is not None:
                raise ValueError(
                    "tie_break_seed belongs to the loop owner when sharing a loop"
                )
            self.loop = loop
        else:
            self.loop = EventLoop(
                tie_break_rng=(
                    random.Random(f"{seed}/tie/{tie_break_seed}")
                    if tie_break_seed is not None
                    else None
                )
            )
        # One jitter RNG per ordered link, derived lazily from the master
        # seed: a shared stream would make each link's delay draws depend
        # on the interleaving of *all* traffic, wrecking replay/shrink
        # determinism the moment an unrelated link chats more.
        self._jitter_rngs: dict[tuple[int, int], random.Random] = {}
        self.link_model = link_model.bind(seed) if link_model is not None else None
        self.frames_delivered = 0
        self.frames_dropped_crash = 0
        self.bytes_on_wire = 0
        self.batches_on_wire = 0
        self.link_batches = 0
        self.link_frames_coalesced = 0
        self.link_frames_shed = 0
        self.link_bytes_shed = 0
        self.peak_link_queue_frames = 0
        # Link-model fault accounting (all zero without a link_model).
        self.link_frames_dropped_model = 0
        self.link_frames_duplicated = 0
        self.link_frames_corrupted = 0
        # Per-link send buffers for frame coalescing: frames handed to a
        # link while the sender's CPU is still busy wait here and leave
        # merged, mirroring the TCP link flush writing what a loop turn
        # queued as one container.  Bounded by config.send_queue_max_frames
        # with priority-aware shedding (0 = unbounded, seed behaviour).
        self._link_pending: dict[tuple[int, int], BoundedSendQueue] = {}

        # Key and coin material is scoped by config.group_tag: two
        # same-seed groups (shards) must not share pairwise MACs or see
        # each other's coin sequence.  An untagged group derives the
        # exact pre-sharding bytes, keeping same-seed replay identical.
        self._dealer = TrustedDealer(
            config.num_processes, seed=config.scoped_seed_bytes(str(seed).encode())
        )
        self._coin_dealer = (
            SharedCoinDealer(secret=config.scoped_seed(f"coin/{seed}").encode())
            if config.bc_coin == "shared"
            else None
        )
        self._honest_factory = (
            base_factory if base_factory is not None else ProtocolFactory.default(config)
        )
        # Incarnation counter per process: frames in flight to or from an
        # earlier incarnation are dropped on arrival (the restart killed
        # the TCP connections they were riding on).
        self._generation = [0] * config.num_processes
        # Periodic callbacks registered per process (see add_ticker);
        # cancelled when their process restarts so they can never fire
        # against a dead incarnation's stack.
        self._tickers: dict[int, list[PeriodicHandle]] = {}
        #: Optional callable invoked with ``(pid, new_stack)`` after
        #: :meth:`restart_process` rebuilds a stack; the invariant
        #: checker uses it to re-attach its observers.
        self.on_stack_rebuilt: Callable[[int, Stack], None] | None = None
        if hosts is not None:
            if len(hosts) != config.num_processes:
                raise ValueError(
                    f"shared hosts list has {len(hosts)} entries for "
                    f"n={config.num_processes}"
                )
            self.hosts = hosts
        else:
            self.hosts = [_Host() for _ in config.process_ids]
        self.stacks: list[Stack] = []
        for pid in config.process_ids:
            self.stacks.append(self._build_stack(pid))

    def _build_stack(self, pid: int) -> Stack:
        factory = self._honest_factory
        transform = self.fault_plan.byzantine.get(pid)
        if transform is not None:
            factory = transform(self._honest_factory)
        incarnation = self._generation[pid]
        rng_tag = self.config.scoped_seed(f"{self.seed}/{pid}") + (
            f"/r{incarnation}" if incarnation else ""
        )
        return Stack(
            self.config,
            pid,
            outbox=self._make_outbox(pid),
            keystore=self._dealer.keystore_for(pid),
            clock=lambda: self.loop.now,
            factory=factory,
            rng=random.Random(rng_tag),
            coin=self._coin_dealer.coin_for(pid) if self._coin_dealer else None,
        )

    def add_ticker(
        self, pid: int, period_s: float, fn: Callable[[], None]
    ) -> PeriodicHandle:
        """Run ``fn()`` every *period_s* simulated seconds on behalf of
        process *pid* -- the simulator analogue of
        :meth:`repro.transport.tcp.RitasNode.add_ticker`.

        The ticker is bound to *pid*'s current incarnation: it cancels
        itself the moment the process crashes or restarts, so a poll
        callback (e.g. a recovery manager's ``poke``) can never fire
        against a dead incarnation's stack.  Prefer this over raw
        ``loop.schedule_every`` for anything holding a stack reference.
        """
        generation = self._generation[pid]

        def tick() -> None:
            if self._generation[pid] != generation or self.fault_plan.is_crashed(
                pid, self.loop.now
            ):
                handle.cancel()
                return
            fn()

        handle = self.loop.schedule_every(period_s, tick)
        self._tickers.setdefault(pid, []).append(handle)
        return handle

    def restart_process(self, pid: int) -> Stack:
        """Restart process *pid* with a brand-new (empty) stack.

        Models a machine reboot: the previous incarnation's protocol
        state is gone, frames still in flight to or from it are dropped
        (its connections died), tickers registered for it via
        :meth:`add_ticker` are cancelled, and any crash entry in the
        fault plan is cleared so the new incarnation sends and receives
        again.  A tracer attached to the old stack is carried over,
        rebound to the simulation clock and stamped with the new
        incarnation number.  The caller re-creates application instances
        on the returned stack and typically attaches a
        :class:`~repro.recovery.RecoveryManager` with
        ``recovering=True`` to rejoin the group.
        """
        self._generation[pid] += 1
        self.fault_plan.revive(pid)
        for handle in self._tickers.pop(pid, []):
            handle.cancel()
        for key in [k for k in self._link_pending if pid in k]:
            del self._link_pending[key]
        old_stack = self.stacks[pid]
        stack = self._build_stack(pid)
        self.stacks[pid] = stack
        if old_stack.tracer.enabled:
            tracer = old_stack.tracer
            tracer.rebind(clock=lambda: self.loop.now, incarnation=self._generation[pid])
            stack.tracer = tracer
        if old_stack.metrics.enabled:
            # The registry outlives the incarnation, exactly like the
            # tracer: post-restart samples keep accumulating into the
            # same histograms, stamped with the new incarnation.
            registry = old_stack.metrics
            registry.rebind(
                clock=lambda: self.loop.now, incarnation=self._generation[pid]
            )
            stack.metrics = registry
        if self.on_stack_rebuilt is not None:
            self.on_stack_rebuilt(pid, stack)
        return stack

    # -- metrics ---------------------------------------------------------------------

    def enable_metrics(
        self,
        sample_interval_s: float | None = None,
        registries: "list[MetricsRegistry] | None" = None,
    ) -> list[MetricsRegistry]:
        """Attach a :class:`~repro.obs.metrics.MetricsRegistry` to every
        stack (idempotent) and return the registries.

        With *sample_interval_s* set, queue-depth gauges are sampled on a
        per-process ticker every that many simulated seconds.  The
        default (``None``) samples only on explicit
        :meth:`sample_metrics` calls -- a ticker keeps the event loop
        non-empty, which would break drive-until-idle ``run()`` loops.

        *registries* attaches caller-supplied registries (one per pid)
        instead of creating private ones -- the sharded simulation hands
        each shard per-shard :meth:`~repro.obs.metrics.MetricsRegistry.labeled`
        views of one shared store.  A tagged group's private registries
        carry a ``group`` const label so multi-group exports stay
        distinguishable.
        """
        for pid in self.config.process_ids:
            stack = self.stacks[pid]
            if not stack.metrics.enabled:
                if registries is not None:
                    registry = registries[pid]
                else:
                    const_labels = {"process": pid, "runtime": "sim"}
                    if self.config.group_tag:
                        const_labels["group"] = self.config.group_tag
                    registry = MetricsRegistry(
                        clock=lambda: self.loop.now, const_labels=const_labels
                    )
                registry.rebind(
                    clock=lambda: self.loop.now, incarnation=self._generation[pid]
                )
                stack.metrics = registry
            if sample_interval_s is not None:
                self.add_ticker(
                    pid, sample_interval_s, lambda pid=pid: self._sample_process(pid)
                )
        return self.metric_registries()

    def metric_registries(self) -> list[MetricsRegistry]:
        """The enabled per-process registries, in pid order (feed these
        to the exporters in :mod:`repro.obs.export`)."""
        return [stack.metrics for stack in self.stacks if stack.metrics.enabled]

    def sample_metrics(self) -> None:
        """Sample queue-depth gauges for every live process, now."""
        for pid in self.config.process_ids:
            if not self.fault_plan.is_crashed(pid, self.loop.now):
                self._sample_process(pid)

    def _sample_process(self, pid: int) -> None:
        stack = self.stacks[pid]
        registry = stack.metrics
        if not registry.enabled:
            return
        stack.sample_gauges()
        for dest in self.config.process_ids:
            if dest == pid:
                continue
            queue = self._link_pending.get((pid, dest))
            registry.gauge("ritas_send_queue_frames", peer=dest).set(
                len(queue) if queue is not None else 0
            )
            registry.gauge("ritas_send_queue_bytes", peer=dest).set(
                queue.bytes if queue is not None else 0
            )

    # -- wire model -----------------------------------------------------------------

    def frame_wire_bytes(self, payload_bytes: int) -> int:
        size = payload_bytes + self.params.header_bytes
        if self.ipsec:
            size += self.params.ipsec_ah_bytes
        return size

    def _cpu_cost(self, wire_bytes: int, fixed: float, pid: int | None = None) -> float:
        cost = fixed + wire_bytes * self.params.cpu_per_byte_s
        if self.ipsec:
            cost += (
                self.params.ipsec_cpu_fixed_s
                + wire_bytes * self.params.ipsec_cpu_per_byte_s
            )
        if self.link_model is not None and pid is not None:
            # A gray-failed host is alive but slow: every CPU-charged
            # operation stretches by its slowdown factor.
            cost *= self.link_model.cpu_factor(pid)
        return cost

    def _link_jitter(self, src: int, dest: int) -> float:
        rng = self._jitter_rngs.get((src, dest))
        if rng is None:
            rng = random.Random(
                self.config.scoped_seed(f"{self.seed}/jitter/{src}->{dest}")
            )
            self._jitter_rngs[(src, dest)] = rng
        return rng.uniform(0.0, self.jitter_s)

    @staticmethod
    def _corrupt_frame(data: bytes) -> bytes:
        # Mangle the frame-version byte to a value the codec is
        # guaranteed to reject (neither FRAME_VERSION nor the batch
        # tag), so corruption is always *detectable*: the receiver
        # counts a malformed-frame drop, nothing enters protocol state.
        return b"\x7f" + data[1:]

    def _make_outbox(self, src: int):
        def outbox(dest: int, data: bytes) -> None:
            self._transmit(src, dest, data)

        return outbox

    def _transmit(self, src: int, dest: int, data: bytes) -> None:
        now = self.loop.now
        if self.fault_plan.is_crashed(src, now):
            return
        params = self.params
        if src == dest:
            # In-process loopback: a function call, not a trip through
            # TCP/IPSec (mirrors the original C library's short circuit).
            local = params.local_delivery_s
            if self.link_model is not None:
                local *= self.link_model.cpu_factor(src)
            done = self.hosts[src].cpu.acquire(now, local)
            self.loop.schedule_at(done, self._deliver, src, dest, data, self._gen(src, dest))
            return
        if self.config.batching:
            # Link-level flush window: frames queued toward this peer
            # before the sender's CPU can take the first one leave merged
            # in one batch -- the discrete-event analogue of the TCP
            # link flush writing a loop turn's queue in a single write.
            key = (src, dest)
            queue = self._link_pending.get(key)
            if queue is not None:
                self._push_link(src, dest, queue, data)
                return
            queue = BoundedSendQueue(self.config.send_queue_max_frames)
            self._link_pending[key] = queue
            self._push_link(src, dest, queue, data)
            # The flush waits for the sender CPU to drain its queued work.
            flush_at = max(now, self.hosts[src].cpu.free_at)
            self.loop.schedule_at(flush_at, self._flush_link, src, dest)
            return
        self._transmit_unit(src, dest, data)

    def _push_link(
        self, src: int, dest: int, queue: BoundedSendQueue, data: bytes
    ) -> None:
        shed = queue.push(data)
        if shed:
            self.link_frames_shed += len(shed)
            self.link_bytes_shed += sum(len(f) for f in shed)
            stack = self.stacks[src]
            stack.stats.sends_shed += len(shed)
            if stack.tracer.enabled:
                stack.tracer.emit(
                    src, KIND_SHED, (), dest=dest, frames=len(shed), queued=len(queue)
                )
        if len(queue) > self.peak_link_queue_frames:
            self.peak_link_queue_frames = len(queue)

    def _flush_link(self, src: int, dest: int) -> None:
        queue = self._link_pending.pop((src, dest), None)
        frames = queue.drain() if queue is not None else None
        if not frames:
            return
        if self.fault_plan.is_crashed(src, self.loop.now):
            return
        for start in range(0, len(frames), SEND_BATCH_FRAMES):
            chunk = frames[start : start + SEND_BATCH_FRAMES]
            if len(chunk) == 1:
                self._transmit_unit(src, dest, chunk[0])
            else:
                self.link_batches += 1
                self.link_frames_coalesced += len(chunk)
                self._transmit_unit(src, dest, encode_batch(chunk))

    def _gen(self, src: int, dest: int) -> tuple[int, int]:
        """Incarnation stamp a frame carries through the staged events."""
        return (self._generation[src], self._generation[dest])

    def _transmit_unit(self, src: int, dest: int, data: bytes) -> None:
        now = self.loop.now
        params = self.params
        wire_bytes = self.frame_wire_bytes(len(data))
        self.bytes_on_wire += wire_bytes
        if is_batch(data):
            self.batches_on_wire += 1
        send_done = self.hosts[src].cpu.acquire(
            now, self._cpu_cost(wire_bytes, params.cpu_send_s, src)
        )
        nic_done = self.hosts[src].nic_out.acquire(
            send_done, wire_bytes * 8.0 / params.bandwidth_bps
        )
        at_switch = nic_done + params.switch_latency_s
        if self.jitter_s > 0.0:
            at_switch += self._link_jitter(src, dest)
        # Downlink and receiver-CPU time must be claimed when the frame
        # actually reaches each resource (staged events), not now: frames
        # still in flight must never block the receiver's present work.
        gen = self._gen(src, dest)
        model = self.link_model
        if model is None:
            self.loop.schedule_at(at_switch, self._arrive, src, dest, data, wire_bytes, gen)
            return
        copies = model.deliveries(src, dest, wire_bytes, now)
        if not copies:
            self.link_frames_dropped_model += 1
            return
        clean = sum(1 for _, corrupt in copies if not corrupt)
        if clean > 1:
            self.link_frames_duplicated += clean - 1
        for extra_delay, corrupt in copies:
            payload = data
            if corrupt:
                payload = self._corrupt_frame(data)
                self.link_frames_corrupted += 1
            self.loop.schedule_at(
                at_switch + extra_delay, self._arrive, src, dest, payload, wire_bytes, gen
            )

    def _arrive(
        self, src: int, dest: int, data: bytes, wire_bytes: int, gen: tuple[int, int]
    ) -> None:
        now = self.loop.now
        clear_at = self.fault_plan.partition_clear_time(src, dest, now)
        if clear_at > now:
            # The link is partitioned: TCP holds and retransmits the
            # segment; it crosses once the partition heals.
            retransmit_at = clear_at + self.params.switch_latency_s
            self.loop.schedule_at(
                retransmit_at, self._arrive, src, dest, data, wire_bytes, gen
            )
            return
        serialization = wire_bytes * 8.0 / self.params.bandwidth_bps
        downlink_done = self.hosts[dest].nic_in.acquire(now, serialization)
        self.loop.schedule_at(
            downlink_done, self._receive, src, dest, data, wire_bytes, gen
        )

    def _receive(
        self, src: int, dest: int, data: bytes, wire_bytes: int, gen: tuple[int, int]
    ) -> None:
        recv_done = self.hosts[dest].cpu.acquire(
            self.loop.now, self._cpu_cost(wire_bytes, self.params.cpu_recv_s, dest)
        )
        self.loop.schedule_at(recv_done, self._deliver, src, dest, data, gen)

    def _deliver(
        self, src: int, dest: int, data: bytes, gen: tuple[int, int] | None = None
    ) -> None:
        if self.fault_plan.is_crashed(dest, self.loop.now):
            self.frames_dropped_crash += 1
            return
        if gen is not None and gen != self._gen(src, dest):
            # A restart severed the connection this frame was riding on.
            self.frames_dropped_crash += 1
            return
        self.frames_delivered += 1
        self.stacks[dest].receive(src, data)

    # -- driving --------------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.loop.now

    def link_queue_depth(self) -> tuple[int, int]:
        """Total ``(frames, bytes)`` currently parked in link coalescing
        queues across every link -- zero once the network has drained
        (the soak harness asserts exactly that after each fault window).
        """
        frames = sum(len(queue) for queue in self._link_pending.values())
        size = sum(queue.bytes for queue in self._link_pending.values())
        return (frames, size)

    def correct_ids(self) -> list[int]:
        faulty = self.fault_plan.faulty_ids()
        return [pid for pid in self.config.process_ids if pid not in faulty]

    def run(
        self,
        until=None,
        max_time: float = 600.0,
        max_events: int | None = None,
    ) -> str:
        """Advance the simulation; see :meth:`EventLoop.run`."""
        return self.loop.run(until=until, max_time=max_time, max_events=max_events)

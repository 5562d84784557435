"""The asyncio TCP node hosting one or more RITAS stacks.

Topology: every node listens on its own address and opens one outbound
connection to every peer (used for sending only); inbound connections
are receive-only.  The first frame on an inbound connection identifies
-- and cryptographically authenticates -- the sending peer.

A node hosts S >= 1 stacks (one per group / shard) over that one mesh:
one listener, one connection, sender task and bounded queue per peer,
one metrics registry.  Shard 0's channel units flow untagged -- a
one-stack node is the paper's process, and its bytes are what a peer
hosting more shards expects for shard 0 -- and shard i>0 units ride
behind a 3-byte channel tag::

    0x53 ('S')  |  u16 shard index (big-endian)  |  stack channel unit

0x53 collides with neither ``FRAME_VERSION`` (0x01) nor the batch tag
(0x42), so the demultiplexer needs no length heuristics.  The sender's
batch merge packs different shards' units into the same container, so
S groups pay the per-write fixed costs once.  Isolation between the
hosted groups is cryptographic: each stack has its own keystore, coin
sequence and RNG stream (all scoped by ``GroupConfig.group_tag``).

All stack processing happens on the event loop thread; the sans-IO core
needs no locks.
"""

from __future__ import annotations

import asyncio
import logging
import random
import struct
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.config import GroupConfig
from repro.core.errors import ConfigurationError, WireFormatError
from repro.core.sendq import BoundedSendQueue
from repro.core.stack import ProtocolFactory, Stack
from repro.core.trace import KIND_SHED
from repro.core.wire import (
    SEND_BATCH_FRAMES,
    decode_batch_views,
    encode_batch,
    frame_priority,
    is_batch,
)
from repro.crypto.coin import CoinSource, SharedCoinDealer
from repro.crypto.keys import KeyStore, TrustedDealer
from repro.obs.metrics import MetricsRegistry
from repro.transport.framing import MAC_LEN, FrameCodec, FramingError, peek_src

logger = logging.getLogger(__name__)

_LEN = struct.Struct(">I")
_MAX_BODY = 64 * 1024 * 1024

#: First byte of a shard-tagged channel unit ('S'); must stay disjoint
#: from FRAME_VERSION (0x01) and the batch tag (0x42).
SHARD_TAG = 0x53
_TAG = struct.Struct(">BH")

#: Outbound reconnect schedule: the first retry after a failed
#: connection attempt waits RECONNECT_BASE_S, doubling per consecutive
#: failure up to RECONNECT_MAX_S, each delay stretched by a random factor
#: in [1, 1 + RECONNECT_JITTER] so a group restarted together does not
#: reconnect in lockstep.
RECONNECT_BASE_S = 0.2
RECONNECT_MAX_S = 5.0
RECONNECT_JITTER = 0.1


def tag_unit(shard_index: int, unit: bytes) -> bytes:
    """Wrap shard *shard_index*'s channel unit for the peer's demux."""
    return _TAG.pack(SHARD_TAG, shard_index) + unit


def _shard_of(unit: bytes) -> int:
    """The shard index a channel unit is tagged with (untagged: 0)."""
    if len(unit) >= _TAG.size and unit[0] == SHARD_TAG:
        return _TAG.unpack_from(unit)[1]
    return 0


class _SendChannel:
    """One peer's outbound queue: a :class:`BoundedSendQueue` plus an
    asyncio wakeup for the sender task.

    Replaces the seed's unbounded ``asyncio.Queue`` so a slow or dead
    peer cannot grow this process's memory without bound; shedding is
    priority-aware and never reorders the surviving frames.
    """

    def __init__(self, max_frames: int = 0):
        self.queue = BoundedSendQueue(max_frames)
        self._event = asyncio.Event()

    def __len__(self) -> int:
        return len(self.queue)

    @property
    def bytes(self) -> int:
        return self.queue.bytes

    def put(self, data: bytes, priority: int | None = None) -> list[bytes]:
        """Enqueue; returns whatever the bound forced out."""
        shed = self.queue.push(data, priority)
        if self.queue:
            self._event.set()
        return shed

    def get_nowait(self) -> bytes | None:
        data = self.queue.pop()
        if not self.queue:
            self._event.clear()
        return data

    async def get(self) -> bytes:
        while True:
            data = self.get_nowait()
            if data is not None:
                return data
            await self._event.wait()

    def drain(self) -> list[bytes]:
        """Take everything queued, in FIFO order."""
        units = self.queue.drain()
        self._event.clear()
        return units


@dataclass(frozen=True)
class PeerAddress:
    """Where one process listens."""

    host: str
    port: int


class RitasNode:
    """One process on a real network, hosting one stack per group.

    The constructor builds the paper's process -- one group, one stack
    (:attr:`stack`).  :meth:`add_shard` hosts further groups over the
    same links; ``stacks[0] is stack`` and every consumer of a single
    stack (gateway attachment, recovery, link gates) keeps working
    against shard 0.

    Args:
        config: the group description (shard 0's; its transport knobs --
            send-queue bound, batching, reconnect retry budget -- govern
            the shared links).
        process_id: this process's id.
        addresses: listen address of every process, indexed by pid.
        keystore: pairwise keys (from a :class:`TrustedDealer` or an
            out-of-band provisioning step, as in the paper).  The link
            codecs authenticate with these; further shards' protocol
            MACs are inside the payload.
        factory: protocol registry; override for fault-injection tests.
        seed: when given, every random draw this node makes (reconnect
            jitter, local consensus coins) comes from a ``random.Random``
            seeded on ``(seed, n, process_id)``, making runs replayable;
            when omitted (production), draws stay OS-random so the
            group's jitter cannot be predicted by an attacker.  The
            stack's coin draws come from a *derived* stream, so they
            stay replayable even though the jitter draws interleave with
            network timing.
        coin: explicit coin source for binary consensus.  Default: the
            stack derives a local coin from the node RNG; with
            ``config.bc_coin == "shared"`` a seed is required and the
            node derives the group's shared-coin dealer secret from it
            (every node of a same-seed group deals the same coin).
    """

    def __init__(
        self,
        config: GroupConfig,
        process_id: int,
        addresses: list[PeerAddress],
        keystore: KeyStore,
        *,
        factory: ProtocolFactory | None = None,
        seed: int | None = None,
        coin: CoinSource | None = None,
    ):
        if len(addresses) != config.num_processes:
            raise ValueError("need one address per process")
        self.config = config
        self.process_id = process_id
        self.addresses = list(addresses)
        self.keystore = keystore
        self._seed = seed
        #: One stack per hosted group, in shard-index order.
        self.stacks: list[Stack] = []
        #: Shard 0's stack -- the only one on a plain node.
        self.stack = self._host_stack(config, keystore, factory, coin)
        #: Reconnect-jitter draws share shard 0's stream.
        self.rng = self.stack.rng
        self._registry: MetricsRegistry | None = None
        #: Inbound units dropped for carrying an unhosted shard index.
        self.frames_unknown_shard = 0
        self._server: asyncio.base_events.Server | None = None
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._send_codecs: dict[int, FrameCodec] = {}
        self._send_queues: dict[int, _SendChannel] = {}
        # Per-peer fault-injection gates (set = link open).  A cleared
        # gate holds the sender loop before it writes, so frames queue
        # and flush in order on release -- the TCP view of a transient
        # partition: delay, never loss.
        self._link_open: dict[int, asyncio.Event] = {}
        self._tasks: list[asyncio.Task] = []
        # Inbound connection handlers, so close() can cancel them: the
        # asyncio server does not cancel live handler tasks on close,
        # and a handler parked in readexactly() would otherwise outlive
        # the node ("task was destroyed but it is pending").
        self._inbound_tasks: set[asyncio.Task] = set()
        self._closed = False
        self.frames_rejected = 0
        #: Frames dropped by the per-peer send-queue bound
        #: (``config.send_queue_max_frames``), dead-peer sheds included.
        self.frames_shed = 0
        #: Outbound channel units merged into batch containers by the
        #: sender tasks (on top of any coalescing the stack already did).
        self.batches_sent = 0
        self.frames_batched = 0
        #: Reconnect bookkeeping (see :meth:`_reconnect_delay`).
        self.connect_attempts = 0
        self.frames_dropped_reconnect = 0
        self.reconnect_delays: list[float] = []

    # -- hosted stacks ------------------------------------------------------------

    def _host_stack(
        self,
        config: GroupConfig,
        keystore: KeyStore,
        factory: ProtocolFactory | None,
        coin: CoinSource | None,
    ) -> Stack:
        """Build the next shard's stack and append it to :attr:`stacks`.

        Seed derivations are scoped by ``config.group_tag`` so same-seed
        groups (shards) draw disjoint RNG streams and coin sequences;
        untagged groups keep the exact pre-sharding strings.
        """
        seed, n, pid = self._seed, config.num_processes, self.process_id
        rng = (
            random.Random(config.scoped_seed(f"ritas/{seed}/{n}/{pid}"))
            if seed is not None
            else random.Random()
        )
        if coin is None and config.bc_coin == "shared":
            if seed is None:
                raise ConfigurationError(
                    "config.bc_coin='shared' needs either an explicit coin "
                    "or a seed to derive the group's dealer secret from"
                )
            dealer = SharedCoinDealer(
                secret=config.scoped_seed(f"ritas-coin/{seed}/{n}").encode()
            )
            coin = dealer.coin_for(pid)
        stack = Stack(
            config,
            pid,
            outbox=self._outbox_for(len(self.stacks)),
            keystore=keystore,
            clock=time.monotonic,
            factory=factory,
            rng=rng,
            coin=coin,
        )
        self.stacks.append(stack)
        return stack

    def add_shard(
        self,
        config: GroupConfig,
        keystore: KeyStore | None = None,
        *,
        factory: ProtocolFactory | None = None,
        coin: CoinSource | None = None,
    ) -> Stack:
        """Host one more group on this node's links; returns its stack.

        The new shard takes the next index (``len(stacks)`` before the
        call); every process of the deployment must add its shards in
        the same order.  Call before :meth:`connect` and
        :meth:`enable_metrics`.

        Args:
            config: the shard's group -- same size as shard 0, with a
                ``group_tag`` no hosted shard uses yet (see
                :func:`repro.shard.sharded_configs`).
            keystore: the shard's protocol keys; default derives them
                from the node seed through a trusted dealer scoped by
                ``config.group_tag`` (mirrors the simulator's dealer).
            factory, coin: as in the constructor, for this shard only.
        """
        if self._send_queues or self._registry is not None:
            raise RuntimeError("add_shard() must precede connect() and enable_metrics()")
        if config.num_processes != self.config.num_processes:
            raise ConfigurationError("every hosted shard must have the same group size")
        tags = [stack.config.group_tag for stack in self.stacks]
        if config.group_tag in tags:
            raise ConfigurationError(
                f"shard group_tags must be distinct: {[*tags, config.group_tag]!r}"
            )
        if keystore is None:
            if self._seed is None:
                raise ConfigurationError(
                    "pass the shard's keystore or build the node with a seed "
                    "to derive it from"
                )
            keystore = TrustedDealer(
                config.num_processes,
                seed=config.scoped_seed_bytes(str(self._seed).encode()),
            ).keystore_for(self.process_id)
        return self._host_stack(config, keystore, factory, coin)

    # -- lifecycle ----------------------------------------------------------------

    async def listen(self) -> None:
        """Bind this node's listener.

        Port 0 in this node's own address requests an ephemeral port;
        the address map is updated with the port actually bound (see
        :attr:`bound_port`), so peers can be told where to connect
        before :meth:`connect` is called.
        """
        if self._server is not None:
            return
        own = self.addresses[self.process_id]
        self._server = await asyncio.start_server(
            self._on_inbound, host=own.host, port=own.port
        )
        bound = self._server.sockets[0].getsockname()[1]
        self.addresses[self.process_id] = PeerAddress(own.host, bound)

    @property
    def bound_port(self) -> int:
        """The port this node's listener is actually bound to."""
        if self._server is None:
            raise RuntimeError("node is not listening yet")
        return self.addresses[self.process_id].port

    def set_peer_addresses(self, addresses: list[PeerAddress]) -> None:
        """Replace the address map (e.g. with ephemeral ports gathered
        after every node's :meth:`listen`).  Call before :meth:`connect`."""
        if len(addresses) != self.config.num_processes:
            raise ValueError("need one address per process")
        self.addresses = list(addresses)

    async def connect(self) -> None:
        """Start the outbound sender task for every peer (each retries
        until its peer is up)."""
        if self._tasks:
            return
        for pid in self.config.process_ids:
            if pid == self.process_id:
                continue
            self._send_codecs[pid] = FrameCodec(
                self.keystore.key_for(pid), self.process_id
            )
            channel = _SendChannel(self.config.send_queue_max_frames)
            self._send_queues[pid] = channel
            self._tasks.append(asyncio.create_task(self._sender(pid, channel)))

    async def start(self) -> None:
        """Listen, then connect to every peer (retrying until they are up)."""
        await self.listen()
        await self.connect()

    async def close(self) -> None:
        self._closed = True
        pending = list(self._tasks) + list(self._inbound_tasks)
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        self._tasks.clear()
        self._inbound_tasks.clear()
        writers = list(self._writers.values())
        self._writers.clear()
        for writer in writers:
            writer.close()
        # Await the transports so the event loop fully releases the
        # sockets before we return -- a closed node leaves nothing
        # half-torn-down behind (no warnings at interpreter exit).
        await asyncio.gather(
            *(writer.wait_closed() for writer in writers), return_exceptions=True
        )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "RitasNode":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def add_ticker(self, period_s: float, fn: Callable[[], Any]) -> None:
        """Call ``fn()`` every *period_s* seconds on the event loop until
        the node closes.

        This drives poll-style timers -- for example
        :meth:`repro.recovery.RecoveryManager.poke` -- on the asyncio
        runtime, mirroring :meth:`EventLoop.schedule_every` on the
        simulated one.
        """
        if period_s <= 0:
            raise ValueError(f"period must be positive (got {period_s})")
        if self._closed:
            return  # a closed node runs no more timers

        async def ticker() -> None:
            try:
                while not self._closed:
                    await asyncio.sleep(period_s)
                    if not self._closed:
                        fn()
            except asyncio.CancelledError:
                pass

        self._tasks.append(asyncio.create_task(ticker()))

    # -- metrics --------------------------------------------------------------------

    def enable_metrics(
        self, sample_interval_s: float | None = None
    ) -> MetricsRegistry:
        """Attach one :class:`~repro.obs.metrics.MetricsRegistry` to this
        node's stacks (idempotent) and return it.

        A one-stack node records straight into the registry; with more
        shards each stack records through a ``shard=<group_tag>``-labeled
        view of it.  Metrics are timed on the same monotonic clock as
        the stacks.  With *sample_interval_s* set, queue-depth gauges
        are sampled on an :meth:`add_ticker` timer (requires a running
        event loop, so call it after :meth:`start` in that case); the
        default samples only on explicit :meth:`sample_metrics` calls.
        """
        if self._registry is None:
            const_labels = {"process": self.process_id, "runtime": "tcp"}
            sharded = len(self.stacks) > 1
            if not sharded and self.config.group_tag:
                const_labels["group"] = self.config.group_tag
            registry = MetricsRegistry(clock=time.monotonic, const_labels=const_labels)
            self._registry = registry
            for index, stack in enumerate(self.stacks):
                stack.metrics = (
                    registry.labeled(shard=stack.config.group_tag or f"s{index}")
                    if sharded
                    else registry
                )
        if sample_interval_s is not None:
            self.add_ticker(sample_interval_s, self.sample_metrics)
        return self._registry

    def sample_metrics(self) -> None:
        """Sample send-queue depth gauges and every stack's gauges, now."""
        registry = self._registry
        if registry is None:
            return
        for stack in self.stacks:
            stack.sample_gauges()
        for pid, channel in self._send_queues.items():
            registry.gauge("ritas_send_queue_frames", peer=pid).set(len(channel))
            registry.gauge("ritas_send_queue_bytes", peer=pid).set(channel.bytes)

    # -- outbound -------------------------------------------------------------------

    def _outbox_for(self, index: int) -> Callable[[int, bytes], None]:
        """The outbox of shard *index*'s stack: loopback stays in-process,
        everything else joins the peer's queue (tagged when index > 0)."""
        tag = tag_unit(index, b"") if index else b""

        def outbox(dest: int, data: bytes) -> None:
            if self._closed:
                return
            if dest == self.process_id:
                # Local loopback: schedule rather than recurse, keeping
                # the send call non-reentrant like a socket write.
                asyncio.get_running_loop().call_soon(
                    self.stacks[index].receive, dest, data
                )
                return
            channel = self._send_queues[dest]
            # Shedding order is decided on the stack's own frame: behind
            # the shard tag every unit would look like bulk.  Unbounded
            # queues never shed, so they skip the header peek.
            priority = frame_priority(data) if channel.queue.max_frames else None
            shed = channel.put(tag + data if tag else data, priority)
            if shed:
                self._charge_shed(dest, shed)

        return outbox

    def _charge_shed(self, dest: int, shed: list[bytes]) -> None:
        """Account units the queue toward *dest* dropped, each to the
        stack that queued it (the per-peer queue is shared by every
        shard, so the victim need not be the enqueuer's)."""
        self.frames_shed += len(shed)
        for index, frames in Counter(map(_shard_of, shed)).items():
            stack = self.stacks[index]
            stack.stats.sends_shed += frames
            if stack.tracer.enabled:
                stack.tracer.emit(
                    self.process_id, KIND_SHED, (), dest=dest, frames=frames
                )

    def _link_gate(self, pid: int) -> asyncio.Event:
        gate = self._link_open.get(pid)
        if gate is None:
            gate = asyncio.Event()
            gate.set()
            self._link_open[pid] = gate
        return gate

    def set_link_blocked(self, pid: int, blocked: bool) -> None:
        """Fault injection: hold (or release) the outbound link to *pid*.

        While blocked, frames keep queueing toward the peer and the
        sender loop parks before its next write; on release everything
        flushes in order.  Blocking the cross-island links of every node
        on both sides is how the partition tests build a 2/2 split on
        the real runtime -- and healing it is one call per link, with
        delivery semantics identical to the simulator's
        :class:`~repro.net.faults.Partition` (delayed, complete, FIFO).
        """
        gate = self._link_gate(pid)
        if blocked:
            gate.clear()
        else:
            gate.set()

    def send_queue_depth(self, pid: int) -> tuple[int, int]:
        """Current ``(frames, bytes)`` queued toward peer *pid*."""
        channel = self._send_queues.get(pid)
        if channel is None:
            return (0, 0)
        return (len(channel), channel.bytes)

    def _drain_batch(self, first: bytes, channel: "_SendChannel") -> bytes:
        """Opportunistically merge queued same-peer frames into one batch
        container, so the link pays one length header and one HMAC for
        the lot.  Only what is already queued is taken -- no waiting."""
        chunk = [first]
        while len(chunk) < SEND_BATCH_FRAMES:
            data = channel.get_nowait()
            if data is None:
                break
            chunk.append(data)
        if len(chunk) == 1:
            return first
        self.batches_sent += 1
        self.frames_batched += len(chunk)
        return encode_batch(chunk)

    def _reconnect_delay(self, failures: int) -> float:
        """Backoff before reconnect attempt number *failures* + 1: the
        base delay doubled per consecutive failure, capped at
        :data:`RECONNECT_MAX_S`, stretched by up to
        :data:`RECONNECT_JITTER`."""
        delay = min(RECONNECT_BASE_S * (2.0 ** (failures - 1)), RECONNECT_MAX_S)
        delay *= 1.0 + self.rng.uniform(0.0, RECONNECT_JITTER)
        if len(self.reconnect_delays) < 4096:
            self.reconnect_delays.append(delay)
        return delay

    async def _sender(self, pid: int, channel: "_SendChannel") -> None:
        """Own the outbound connection to *pid*: (re)connect and drain."""
        codec = self._send_codecs[pid]
        gate = self._link_gate(pid)
        writer: asyncio.StreamWriter | None = None
        failures = 0
        budget = self.config.reconnect_retry_budget
        try:
            while not self._closed:
                if writer is None:
                    address = self.addresses[pid]
                    self.connect_attempts += 1
                    try:
                        _, writer = await asyncio.open_connection(
                            address.host, address.port
                        )
                        self._writers[pid] = writer
                        failures = 0
                    except OSError:
                        failures += 1
                        if budget and failures >= budget:
                            # Past the retry budget the peer is presumed
                            # down: shed its queue so memory stays
                            # bounded while probing continues at the
                            # capped rate.
                            dropped = channel.drain()
                            if dropped:
                                self.frames_dropped_reconnect += len(dropped)
                                self._charge_shed(pid, dropped)
                        await asyncio.sleep(self._reconnect_delay(failures))
                        continue
                data = await channel.get()
                if not gate.is_set():
                    await gate.wait()
                batching = self.config.batching
                if batching:
                    data = self._drain_batch(data, channel)
                try:
                    writer.write(codec.encode(data))
                    # Drain-once leaning: whatever else is already queued
                    # leaves in the same flush -- every unit is written
                    # into the transport buffer first and the (possibly
                    # blocking) flow-control drain is awaited once per
                    # wakeup instead of once per unit.
                    while True:
                        more = channel.get_nowait()
                        if more is None:
                            break
                        if batching:
                            more = self._drain_batch(more, channel)
                        writer.write(codec.encode(more))
                    await writer.drain()
                except (ConnectionError, OSError):
                    logger.warning("p%d: lost connection to p%d", self.process_id, pid)
                    writer.close()
                    writer = None
                    # The frame is lost with the connection; the reliable
                    # channel property is per-TCP-session, as in the paper.
        except asyncio.CancelledError:
            pass

    # -- inbound --------------------------------------------------------------------

    def _demux(self, src: int, payload: bytes) -> None:
        """Route one link-authenticated unit on a node hosting several
        stacks.  Node-level batch containers may interleave units from
        different shards (the sender merges across stacks), so they are
        unpacked here; untagged members are shard 0's, whose stack
        handles any *stack-level* batch nesting itself."""
        if is_batch(payload):
            try:
                units = [bytes(view) for view in decode_batch_views(payload)]
            except WireFormatError:
                self.frames_rejected += 1
                self._charge_link(src)
                return
        else:
            units = [payload]
        for unit in units:
            index = _shard_of(unit)
            if index >= len(self.stacks):
                # An authenticated peer sent a shard we do not host:
                # misconfiguration or misbehavior either way.
                self.frames_unknown_shard += 1
                self.frames_rejected += 1
                self._charge_link(src)
            elif index:
                self.stacks[index].receive(src, unit[_TAG.size :])
            else:
                self.stack.receive(src, unit)

    def _charge_link(self, pid: int) -> None:
        """Charge an authenticated link-level framing/MAC failure.  The
        link is shared infrastructure: a corrupted or hijacked session
        threatens every hosted group equally, so each ledger records it."""
        for stack in self.stacks:
            stack.report_misbehavior(pid, "mac-failure")

    async def _on_inbound(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._inbound_tasks.add(task)
        codec: FrameCodec | None = None
        peer = "?"
        peer_pid: int | None = None
        try:
            while not self._closed:
                header = await reader.readexactly(_LEN.size)
                (length,) = _LEN.unpack(header)
                if not MAC_LEN < length <= _MAX_BODY:
                    raise FramingError(f"implausible frame length {length}")
                body = await reader.readexactly(length)
                if codec is None:
                    src = peek_src(body)
                    if src not in self.config.process_ids or src == self.process_id:
                        raise FramingError(f"inbound link claims invalid pid {src}")
                    codec = FrameCodec(self.keystore.key_for(src), src)
                    peer = f"p{src}"
                src, payload = codec.decode(body)
                # Only a link that has produced at least one valid MAC
                # is attributable: anyone can *claim* a pid in its first
                # body, and scoring on that claim would let an outsider
                # slander group members.
                peer_pid = src
                if len(self.stacks) == 1:
                    self.stack.receive(src, payload)
                else:
                    self._demux(src, payload)
        except asyncio.CancelledError:
            pass
        except (asyncio.IncompleteReadError, ConnectionError):
            logger.debug("p%d: inbound link from %s closed", self.process_id, peer)
        except FramingError as exc:
            self.frames_rejected += 1
            if peer_pid is not None:
                # The link authenticated itself as peer_pid with its
                # first valid MAC, so a later framing/MAC failure is
                # chargeable -- either that peer corrupted the stream or
                # it let someone else hijack its session.
                self._charge_link(peer_pid)
            logger.warning(
                "p%d: rejecting inbound link from %s: %s", self.process_id, peer, exc
            )
        finally:
            if task is not None:
                self._inbound_tasks.discard(task)
            writer.close()

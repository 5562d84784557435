"""The asyncio TCP node hosting one or more RITAS stacks.

Topology: every node listens on its own address and opens one outbound
connection to every peer (used for sending only); inbound connections
are receive-only.  The first frame on an inbound connection identifies
-- and cryptographically authenticates -- the sending peer.

The data path is event-driven: inbound links deliver each complete unit
of a read as it arrives; one flush per loop turn delivers loopback units
and writes each peer one flat container.  A down, blocked or paused peer
keeps its units queued, unencoded; a connector task per peer only connects.

A node hosts S >= 1 stacks (one per group / shard) over that one mesh:
one listener, one connection, connector task and bounded queue per peer,
one metrics registry.  Shard 0's channel units flow untagged -- a
one-stack node is the paper's process, and its bytes are what a peer
hosting more shards expects for shard 0 -- and shard i>0 units ride
behind a 3-byte channel tag::

    0x53 ('S')  |  u16 shard index (big-endian)  |  stack channel unit

0x53 collides with neither ``FRAME_VERSION`` (0x01) nor the batch tag
(0x42), so the demultiplexer needs no length heuristics.  The link
flush packs different shards' units into the same container, so
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
    frame_priority,
    is_batch,
    splice_batch,
)
from repro.crypto.coin import CoinSource, SharedCoinDealer
from repro.crypto.keys import KeyStore, TrustedDealer
from repro.obs.metrics import MetricsRegistry
from repro.transport.framing import MAC_LEN, MAX_FRAME, FrameCodec, FramingError, peek_src

logger = logging.getLogger(__name__)

_LEN = struct.Struct(">I")
#: Resting size of an inbound link's receive buffer.
_RECV_BUFFER = 64 * 1024

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


class _Link(asyncio.BaseProtocol):
    """A connection's transport, and a :attr:`closed` future resolved (with
    the error, if any) when it is gone; live ones sit in ``_connections``."""

    transport: Any = None

    def __init__(self, node: "RitasNode"):
        self.node = node

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.closed = asyncio.get_running_loop().create_future()
        self.node._connections.add(self)
        if self.node._closed:
            transport.close()

    def connection_lost(self, exc: Exception | None) -> None:
        self.transport = None
        self.node._connections.discard(self)
        self.closed.set_result(exc)


class _PeerLink(_Link, asyncio.Protocol):
    """One peer's outbound link: bounded send queue, codec and transport.
    Every connection attempt gets this object, so queued units outlive a
    reconnect; bytes written into a dead transport die with it."""

    def __init__(self, node: "RitasNode", pid: int):
        super().__init__(node)
        self.pid = pid
        self.codec = FrameCodec(node.keystore.key_for(pid), node.process_id)
        self.queue = BoundedSendQueue(node.config.send_queue_max_frames)
        #: Set by flow control (the transport's buffer is over its mark).
        self.paused = False

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.node._schedule_flush()


class _InboundLink(_Link, asyncio.BufferedProtocol):
    """One receive-only connection.  Reads land in one reusable buffer
    (``recv_into``: no allocation per read); any failure closes the link,
    delivering nothing after the bad unit."""

    def __init__(self, node: "RitasNode"):
        super().__init__(node)
        self.codec: FrameCodec | None = None
        #: Set by the first valid MAC: only then is the link attributable.
        self.peer_pid: int | None = None
        #: ``buffer[start:end]`` is an incomplete unit awaiting more bytes.
        self.buffer = bytearray(_RECV_BUFFER)
        self.start = self.end = 0

    def get_buffer(self, sizehint: int) -> memoryview:
        # Resize only here: during buffer_updated the read's view is live.
        start, end = self.start, self.end
        if start:
            self.buffer[: end - start] = self.buffer[start:end]
            self.start, self.end = 0, end - start
        if self.end == 0 and len(self.buffer) > _RECV_BUFFER:
            self.buffer = bytearray(_RECV_BUFFER)
        if self.end == len(self.buffer):
            # Full with one unit whose length buffer_updated checked: double
            # toward it, so memory grows only with bytes actually received.
            unit = _LEN.size + _LEN.unpack_from(self.buffer)[0]
            self.buffer.extend(bytes(min(len(self.buffer), unit - self.end)))
        return memoryview(self.buffer)[self.end :]

    def buffer_updated(self, nbytes: int) -> None:
        """Authenticate and deliver every complete unit buffered, checking
        a length as soon as its header is in, before the buffer grows."""
        self.end += nbytes
        node, offset, size = self.node, self.start, self.end
        try:
            with memoryview(self.buffer) as view:
                while size - offset >= _LEN.size and not node._closed:
                    (length,) = _LEN.unpack_from(view, offset)
                    if not MAC_LEN < length <= MAX_FRAME:
                        raise FramingError(f"implausible frame length {length}")
                    end = offset + _LEN.size + length
                    if end > size:
                        break
                    body = view[offset + _LEN.size : end]
                    src, payload = (self.codec or self._authenticate(body)).decode(body)
                    self.peer_pid = src
                    offset = end
                    # Looked up per unit: tracing wraps stack.receive after connect().
                    (node.stack.receive if len(node.stacks) == 1 else node._demux)(src, payload)
        except FramingError as exc:
            self._reject(exc)
            return
        # A closing node drops the rest unread: no unchecked length stays.
        self.start = size if node._closed else offset

    def _authenticate(self, body) -> FrameCodec:
        """Pick the pairwise key by the first unit's claimed src; the same
        unit is then verified under it, so a liar gains nothing."""
        node = self.node
        src = peek_src(body)
        if src not in node.config.process_ids or src == node.process_id:
            raise FramingError(f"inbound link claims invalid pid {src}")
        self.codec = FrameCodec(node.keystore.key_for(src), src)
        return self.codec

    def _reject(self, exc: FramingError) -> None:
        node = self.node
        node.frames_rejected += 1
        if self.peer_pid is not None:
            # Past its first valid MAC the link is attributable (the peer
            # corrupted the stream or let someone hijack its session); a
            # pid merely *claimed* in a first unit charges nobody.
            node._charge_link(self.peer_pid)
        logger.warning("p%d: rejecting link (peer %s): %s", node.process_id, self.peer_pid, exc)
        self.transport.close()


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
        #: One outbound link (send queue, codec, connection) per peer.
        self._send_queues: dict[int, _PeerLink] = {}
        #: Peers whose outbound link is held (:meth:`set_link_blocked`).
        self._blocked: set[int] = set()
        #: This turn's ``(shard index, unit)`` addressed to this process.
        self._loopback: list[tuple[int, bytes]] = []
        self._flush_scheduled = False
        self._tasks: list[asyncio.Task] = []
        #: Live connections, both directions.
        self._connections: set[_Link] = set()
        self._closed = False
        self.frames_rejected = 0
        #: Frames dropped by the per-peer send-queue bound
        #: (``config.send_queue_max_frames``), dead-peer sheds included.
        self.frames_shed = 0
        #: Outbound channel units merged into batch containers by the
        #: link flush (on top of any coalescing the stack already did).
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
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _InboundLink(self), host=own.host, port=own.port
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
        """Start the connector task for every peer (each retries until
        its peer is up)."""
        if self._tasks:
            return
        for pid in self.config.process_ids:
            if pid == self.process_id:
                continue
            link = self._send_queues[pid] = _PeerLink(self, pid)
            self._tasks.append(asyncio.create_task(self._connector(link)))

    async def start(self) -> None:
        """Listen, then connect to every peer (retrying until they are up)."""
        await self.listen()
        await self.connect()

    async def close(self) -> None:
        self._closed = True
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        links = list(self._connections)
        for link in links:
            link.transport.close()
        # Await the transports so the loop releases the sockets before we
        # return: a closed node leaves nothing half-torn-down behind.
        await asyncio.gather(*(link.closed for link in links))
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
        for pid, link in self._send_queues.items():
            registry.gauge("ritas_send_queue_frames", peer=pid).set(len(link.queue))
            registry.gauge("ritas_send_queue_bytes", peer=pid).set(link.queue.bytes)

    # -- outbound -------------------------------------------------------------------

    def _outbox_for(self, index: int) -> Callable[[int, bytes], None]:
        """The outbox of shard *index*'s stack: loopback stays in-process,
        everything else joins the peer's queue (tagged when index > 0)."""
        tag = tag_unit(index, b"") if index else b""

        def outbox(dest: int, data: bytes) -> None:
            if self._closed:
                return
            if dest == self.process_id:
                # The flush delivers it: sends stay non-reentrant.
                self._loopback.append((index, data))
            else:
                queue = self._send_queues[dest].queue
                # Shed priority is read from the stack's own frame (behind
                # the shard tag all is bulk); unbounded queues never shed.
                priority = frame_priority(data) if queue.max_frames else None
                shed = queue.push(tag + data if tag else data, priority)
                if shed:
                    self._charge_shed(dest, shed)
            self._schedule_flush()

        return outbox

    def _schedule_flush(self) -> None:
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)

    def _flush(self) -> None:
        """Once per loop turn that queued anything: deliver the turn's loopback
        units, then write every writable peer's queue, including what they queued."""
        if self._closed:
            return
        loopback, self._loopback = self._loopback, []
        for index, data in loopback:
            try:
                self.stacks[index].receive(self.process_id, data)
            except Exception:
                # One failing unit must not strand the rest of the turn.
                logger.exception("p%d: loopback unit failed", self.process_id)
        self._flush_scheduled = False
        for pid, link in self._send_queues.items():
            if link.queue and link.transport and not link.paused and pid not in self._blocked:
                self._write(link)
        if self._loopback:
            self._schedule_flush()

    def _write(self, link: _PeerLink) -> None:
        """Write one peer's queue in one transport write: one flat container
        per :data:`SEND_BATCH_FRAMES` units with batching on, else per unit."""
        units = link.queue.drain()
        step = SEND_BATCH_FRAMES if self.config.batching else 1
        out = []
        for start in range(0, len(units), step):
            chunk = units[start : start + step]
            if len(chunk) > 1:
                self.batches_sent += 1
                self.frames_batched += len(chunk)
            out.append(link.codec.encode(splice_batch(chunk) if len(chunk) > 1 else chunk[0]))
        link.transport.write(b"".join(out))

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

    def set_link_blocked(self, pid: int, blocked: bool) -> None:
        """Fault injection: hold (or release) the outbound link to *pid*.

        While blocked, units keep queueing (unencoded) toward the peer and
        the link flush skips it; on release everything flushes in order.
        Blocking the cross-island links of every node on both sides is
        how the partition tests build a 2/2 split on the real runtime --
        and healing it is one call per link, with delivery semantics
        identical to the simulator's :class:`~repro.net.faults.Partition`
        (delayed, complete, FIFO).
        """
        if blocked:
            self._blocked.add(pid)
        else:
            self._blocked.discard(pid)
            if self._send_queues:
                self._schedule_flush()

    def send_queue_depth(self, pid: int) -> tuple[int, int]:
        """Current ``(frames, bytes)`` queued toward peer *pid*."""
        link = self._send_queues.get(pid)
        if link is None:
            return (0, 0)
        return (len(link.queue), link.queue.bytes)

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

    async def _connector(self, link: _PeerLink) -> None:
        """Own the outbound connection to one peer: connect, wait for it to
        drop, reconnect -- after a backoff if the attempt failed or the
        connection lasted under :data:`RECONNECT_BASE_S`.  No writing."""
        loop = asyncio.get_running_loop()
        failures = 0
        budget = self.config.reconnect_retry_budget
        try:
            while not self._closed:
                address = self.addresses[link.pid]
                self.connect_attempts += 1
                try:
                    await loop.create_connection(lambda: link, address.host, address.port)
                    opened = loop.time()
                    link.resume_writing()  # flush what queued while it was down
                    # Shielded: cancelling this task must not cancel close()'s wait.
                    error = await asyncio.shield(link.closed)
                    if error is not None and not self._closed:
                        logger.warning("p%d: lost p%d link: %s", self.process_id, link.pid, error)
                except OSError:
                    opened = loop.time()  # a failed attempt was up for no time
                if loop.time() - opened >= RECONNECT_BASE_S:
                    failures = 0  # it stayed up: reconnect at once
                    continue
                failures += 1
                if budget and failures >= budget:
                    # Past the budget the peer is presumed down: shed its
                    # queue (bounded memory); probing goes on, capped.
                    dropped = link.queue.drain()
                    if dropped:
                        self.frames_dropped_reconnect += len(dropped)
                        self._charge_shed(link.pid, dropped)
                await asyncio.sleep(self._reconnect_delay(failures))
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

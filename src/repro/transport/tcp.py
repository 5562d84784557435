"""The asyncio TCP node hosting one RITAS stack.

Topology: every node listens on its own address and opens one outbound
connection to every peer (used for sending only); inbound connections
are receive-only.  The first frame on an inbound connection identifies
-- and cryptographically authenticates -- the sending peer.

The data path is event-driven: inbound links deliver each complete unit
of a read as it arrives; one flush per loop turn delivers loopback frames
and writes each peer its queued frames in flat containers, the only
place a node builds one.  A blocked or paused peer, or one not reached
yet, keeps its frames queued, unencoded; a peer that was up and stopped
answering is *down*, and its frames are shed at the outbox.
A connector task per peer only connects.

A node is one process of one group, as in the paper.  A process taking
part in several groups runs one node per group, each with its own
listener, peer mesh, keystore, seed and metrics registry.

All stack processing happens on the event loop thread; the sans-IO core
needs no locks.
"""

from __future__ import annotations

import asyncio
import logging
import random
import struct
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.config import GroupConfig
from repro.core.errors import ConfigurationError
from repro.core.sendq import BoundedSendQueue
from repro.core.stack import ProtocolFactory, Stack
from repro.core.wire import MAX_BATCH_FRAMES, channel_units, is_batch
from repro.crypto.coin import CoinSource, SharedCoinDealer
from repro.crypto.keys import KeyStore
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.stack_metrics import StackMetrics
from repro.transport.framing import (
    BODY_OVERHEAD,
    MAC_LEN,
    MAX_FRAME,
    FrameCodec,
    FramingError,
    peek_src,
)

logger = logging.getLogger(__name__)

_LEN = struct.Struct(">I")
#: Resting size of an inbound link's receive buffer.
_RECV_BUFFER = 64 * 1024

#: Outbound reconnect schedule: the first retry after a failed
#: connection attempt waits RECONNECT_BASE_S, doubling per consecutive
#: failure up to RECONNECT_MAX_S, each delay stretched by a random factor
#: in [1, 1 + RECONNECT_JITTER] so a group restarted together does not
#: reconnect in lockstep.
RECONNECT_BASE_S = 0.2
RECONNECT_MAX_S = 5.0
RECONNECT_JITTER = 0.1
#: Consecutive failed reconnects after which a link that was up is
#: presumed down (about 0.6 s of refused connects at the schedule above):
#: its queue is shed, and so is every frame toward it until a connect
#: succeeds.  A peer that never connected is never down: startup skew is
#: not a crash.
DOWN_AFTER_FAILURES = 3


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
    Every connection attempt gets this object, so queued frames outlive a
    reconnect; bytes written into a dead transport die with it."""

    def __init__(self, node: "RitasNode", pid: int):
        super().__init__(node)
        self.pid = pid
        self.codec = FrameCodec(node.keystore.key_for(pid), node.process_id)
        self.queue = BoundedSendQueue(node.config.send_queue_max_frames)
        #: Set by flow control (the transport's buffer is over its mark).
        self.paused = False
        #: Set after :data:`DOWN_AFTER_FAILURES` failed reconnects of a
        #: link that was up; cleared by the next connect.
        self.down = False

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.node._schedule_flush()


class _InboundLink(_Link, asyncio.BufferedProtocol):
    """One receive-only connection.  Reads land in one reusable buffer
    (``recv_into``: no allocation per read); any failure closes the link,
    delivering nothing after the bad unit.

    A unit larger than the resting buffer grows it as its bytes arrive
    and, once complete, is handed to the stack in place: its payload is a
    read-only view of that buffer, and the link starts again on a fresh
    one, never writing, resizing or reusing the buffer it handed off."""

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
        # A grown buffer holds exactly one unit, from offset 0: get_buffer
        # compacts before it grows and stops at the unit's length.
        grown = len(self.buffer) > _RECV_BUFFER
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
                    codec = self.codec or self._authenticate(body)
                    src, payload = codec.decode(body, in_place=grown)
                    self.peer_pid = src
                    offset = end
                    # Looked up per unit: tracing wraps stack.receive after connect().
                    node.stack.receive(src, payload)
        except FramingError as exc:
            self._reject(exc)
            return
        if node._closed:
            offset = size  # a closing node drops the rest: no unchecked length stays
        if grown and offset == size:
            # Handed off (or dropped): the stack may hold views of it.
            self.buffer = bytearray(_RECV_BUFFER)
            offset = size = 0
        self.start, self.end = offset, size

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
    """One process of one group on a real network, hosting its stack.

    The constructor builds the paper's process -- one group, one stack
    (:attr:`stack`).  A process in several groups runs one node per
    group.

    Args:
        config: the group description.
        process_id: this process's id.
        addresses: listen address of every process, indexed by pid.
        keystore: pairwise keys (from a :class:`TrustedDealer` or an
            out-of-band provisioning step, as in the paper).  The link
            codecs and the stack's MAC vectors authenticate with these.
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
        n = config.num_processes
        rng = (
            random.Random(f"ritas/{seed}/{n}/{process_id}")
            if seed is not None
            else random.Random()
        )
        if coin is None and config.bc_coin == "shared":
            if seed is None:
                raise ConfigurationError(
                    "config.bc_coin='shared' needs either an explicit coin "
                    "or a seed to derive the group's dealer secret from"
                )
            dealer = SharedCoinDealer(secret=f"ritas-coin/{seed}/{n}".encode())
            coin = dealer.coin_for(process_id)
        self.stack = Stack(
            config,
            process_id,
            outbox=self._outbox,
            keystore=keystore,
            clock=time.monotonic,
            factory=factory,
            rng=rng,
            coin=coin,
        )
        #: Reconnect-jitter draws share the stack's stream.
        self.rng = self.stack.rng
        # The stack's metrics subscriber, once enable_metrics ran.
        self._stack_metrics: StackMetrics | None = None
        self._server: asyncio.base_events.Server | None = None
        #: One outbound link (send queue, codec, connection) per peer.
        self._send_queues: dict[int, _PeerLink] = {}
        #: Peers whose outbound link is held (:meth:`set_link_blocked`).
        self._blocked: set[int] = set()
        #: This turn's frames addressed to this process.
        self._loopback: list[bytes] = []
        self._flush_scheduled = False
        self._tasks: list[asyncio.Task] = []
        #: Live connections, both directions.
        self._connections: set[_Link] = set()
        self._closed = False
        self.frames_rejected = 0
        #: Frames dropped toward a peer: by the per-peer send-queue bound
        #: (``config.send_queue_max_frames``), and every frame toward a
        #: down link.
        self.frames_shed = 0
        #: Batch containers the link flush wrote, and the frames in them.
        self.batches_sent = 0
        self.frames_batched = 0
        #: Reconnect bookkeeping (see :meth:`_reconnect_delay`).
        self.connect_attempts = 0
        self.reconnect_delays: list[float] = []

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
        """Subscribe the stack to a :class:`~repro.obs.metrics.MetricsRegistry`
        (idempotent) and return it.

        Metrics are timed on the same monotonic clock as the stack.
        With *sample_interval_s* set, queue-depth gauges are sampled on
        an :meth:`add_ticker` timer (requires a running event loop, so
        call it after :meth:`start` in that case); the default samples
        only on explicit :meth:`sample_metrics` calls.
        """
        if self._stack_metrics is None:
            registry = MetricsRegistry(const_labels={"process": self.process_id, "runtime": "tcp"})
            self._stack_metrics = StackMetrics.attach(self.stack, registry)
        if sample_interval_s is not None:
            self.add_ticker(sample_interval_s, self.sample_metrics)
        return self._stack_metrics.registry

    @property
    def metrics(self) -> MetricsRegistry:
        """What :attr:`stack` records into; :data:`NULL_REGISTRY` until
        :meth:`enable_metrics`."""
        return self._stack_metrics.registry if self._stack_metrics else NULL_REGISTRY

    def sample_metrics(self) -> None:
        """Sample send-queue depth gauges and the stack's gauges, now."""
        if self._stack_metrics is None:
            return
        self._stack_metrics.sample({pid: link.queue for pid, link in self._send_queues.items()})

    # -- outbound -------------------------------------------------------------------

    def _outbox(self, dest: int, data: bytes) -> None:
        """The stack's outbox: loopback stays in-process, a frame toward a
        down link is shed, everything else joins the peer's queue."""
        if self._closed:
            return
        if dest == self.process_id:
            # The flush delivers it: sends stay non-reentrant.
            self._loopback.append(data)
        else:
            link = self._send_queues[dest]
            if link.down:
                self._charge_shed(dest, 1)
                return
            shed = link.queue.push(data)
            if shed:
                self._charge_shed(dest, len(shed))
        self._schedule_flush()

    def _schedule_flush(self) -> None:
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)

    def _flush(self) -> None:
        """Once per loop turn that queued anything: deliver the turn's loopback
        frames in one flush window, then write every writable peer's queue,
        including what they queued."""
        if self._closed:
            return
        loopback, self._loopback = self._loopback, []
        if loopback:
            stack = self.stack
            # One failing frame, or window-close callback, must not strand
            # the rest of the turn.
            try:
                with stack.coalesce():
                    for data in loopback:
                        try:
                            stack.receive(self.process_id, data)
                        except Exception:
                            logger.exception("p%d: loopback frame failed", self.process_id)
            except Exception:
                logger.exception("p%d: loopback window failed", self.process_id)
        self._flush_scheduled = False
        for pid, link in self._send_queues.items():
            if link.queue and link.transport and not link.paused and pid not in self._blocked:
                self._write(link)
        if self._loopback:
            self._schedule_flush()

    def _write(self, link: _PeerLink) -> None:
        """Write one peer's queue in one transport write: flat containers of
        up to :data:`MAX_BATCH_FRAMES` frames with batching on, each within
        what a receiver accepts (:data:`MAX_FRAME`), else one unit per frame."""
        frames = link.queue.drain()
        units = channel_units(
            frames, MAX_BATCH_FRAMES if self.config.batching else 1, MAX_FRAME - BODY_OVERHEAD
        )
        if len(units) < len(frames):
            batches = sum(map(is_batch, units))
            self.batches_sent += batches
            self.frames_batched += len(frames) - len(units) + batches
        encode = link.codec.encode
        link.transport.write(b"".join([encode(unit) for unit in units]))

    def _charge_shed(self, dest: int, frames: int) -> None:
        """Account *frames* frames dropped toward *dest*."""
        self.frames_shed += frames
        self.stack.stats.record_shed(dest, frames, len(self._send_queues[dest].queue))

    def set_link_blocked(self, pid: int, blocked: bool) -> None:
        """Fault injection: hold (or release) the outbound link to *pid*.

        While blocked, frames keep queueing (unencoded) toward the peer and
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
        connection lasted under :data:`RECONNECT_BASE_S`.  After
        :data:`DOWN_AFTER_FAILURES` such failures a link that was up goes
        down.  No writing."""
        loop = asyncio.get_running_loop()
        failures = 0
        connected = False
        try:
            while not self._closed:
                address = self.addresses[link.pid]
                self.connect_attempts += 1
                try:
                    await loop.create_connection(lambda: link, address.host, address.port)
                    connected = True
                    link.down = False
                    opened = loop.time()
                    link.resume_writing()  # flush what queued meanwhile
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
                if connected and failures >= DOWN_AFTER_FAILURES and not link.down:
                    # The peer was up and stopped answering: presume it
                    # crashed and hold nothing for it (a restarted replica
                    # catches up by state transfer); probing goes on, capped.
                    link.down = True
                    dropped = len(link.queue.drain())
                    if dropped:
                        self._charge_shed(link.pid, dropped)
                await asyncio.sleep(self._reconnect_delay(failures))
        except asyncio.CancelledError:
            pass

    # -- inbound --------------------------------------------------------------------

    def _charge_link(self, pid: int) -> None:
        """Charge an authenticated link-level framing/MAC failure."""
        self.stack.report_misbehavior(pid, "mac-failure")

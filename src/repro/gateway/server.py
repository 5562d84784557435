"""The client gateway: thousands of sessions multiplexed onto one replica.

A gateway fronts exactly one replicated KV store -- one group, one
atomic-broadcast stream, as in the paper.  A process that takes part in
several groups runs one node and one gateway per group.

This is the front door the paper's evaluation never needed (its clients
were the harness itself) and the ROADMAP's "heavy traffic" story does:
an asyncio server riding on a :class:`~repro.transport.tcp.RitasNode`
that

- speaks the length-prefixed client protocol of
  :mod:`repro.gateway.protocol` to any number of concurrent sessions;
- pipelines each read-wakeup's worth of client operations into atomic
  broadcast through the stack's coalescing window, so a burst of client
  requests costs one batched submission, not one channel unit each;
- maps the replica's admission control (``config.ab_pending_cap`` ->
  :class:`~repro.core.errors.BackpressureError`) onto structured
  ``retry-after`` responses instead of letting overload grow queues;
- serves ``get`` either **ordered** (default: the read is a no-op
  command ordered through atomic broadcast and answered from the state
  at its serialization point -- every session sees reads and writes in
  one total order) or **local** (staleness-tolerant: answered from the
  local replica's current state, no ordering cost);
- exposes an HTTP status endpoint (:mod:`repro.gateway.http`) with the
  Prometheus exposition plus gateway gauges.

Write correlation uses the atomic-broadcast message id: every ordered
submission returns its ``(sender, rbid)`` and the state machine's
``on_applied`` hook reports that id back at apply time, so responses
are matched exactly -- never by submission order, which asynchrony is
allowed to permute.  The id is echoed to the client in every ``ok``
detail, which is what lets a load generator audit "zero lost or
duplicated acknowledged writes" against the replicated log.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.apps.kv_store import KvCommand, ReplicatedKvStore
from repro.apps.state_machine import Command, ReplicatedStateMachine
from repro.gateway.protocol import (
    READ_OPS,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_RETRY,
    UNCORRELATED_ID,
    ClientProtocolError,
    FrameReader,
    decode_request,
    encode_response,
)
from repro.transport.tcp import RitasNode

logger = logging.getLogger(__name__)

#: Gateway metric names (the ``gateway_*`` family; see docs/API.md).
METRIC_OPS = "gateway_ops_total"
METRIC_OP_LATENCY = "gateway_op_latency_seconds"
METRIC_SESSIONS_OPEN = "gateway_sessions_open"
METRIC_SESSIONS_TOTAL = "gateway_sessions_total"
METRIC_INFLIGHT = "gateway_inflight_ops"
METRIC_SEND_QUEUE = "gateway_send_queue_frames"
METRIC_SESSIONS_DROPPED = "gateway_sessions_dropped_total"
METRIC_INTERNAL_ERRORS = "gateway_internal_errors_total"

#: Path of the gateway's replicated KV store on every replica's stack
#: (all replicas must host the same instance).
SERVICE_PATH_KV = ("gw", "kv")

#: Per-session cap on queued response frames; a client that stops
#: reading past it is disconnected (the same memory-bounding posture as
#: the replica send queues).
SESSION_SEND_QUEUE = 1024
#: Ordered operations not applied within this many seconds are answered
#: ``error "timeout"`` and dropped from the pending table (they may still
#: apply later -- the id was admitted; this bounds gateway memory, not
#: the protocol).
OP_TIMEOUT_S = 30.0
#: Client backoff hint attached to every ``retry-after`` response.
RETRY_AFTER_MS = 50
#: Period of the upkeep task that expires timed-out ops and samples the
#: gateway gauges.
SWEEP_INTERVAL_S = 1.0


@dataclass
class GatewayServices:
    """The replicated KV store a gateway fronts.

    Every replica of the group attaches the same store (writes apply
    group-wide); the gateway rides on one of them.
    """

    kv: ReplicatedKvStore

    @classmethod
    def attach(cls, node: RitasNode) -> "GatewayServices":
        return cls(kv=ReplicatedKvStore(node.stack.create("ab", SERVICE_PATH_KV)))


class _Session:
    """One client connection: its stream, send queue and reader task."""

    __slots__ = (
        "sid",
        "reader",
        "writer",
        "frames",
        "sendq",
        "send_event",
        "inflight",
        "reader_task",
        "writer_task",
        "closed",
    )

    def __init__(self, sid: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.sid = sid
        self.reader = reader
        self.writer = writer
        self.frames = FrameReader()
        self.sendq: deque[bytes] = deque()
        self.send_event = asyncio.Event()
        self.inflight = 0
        self.reader_task: asyncio.Task | None = None
        self.writer_task: asyncio.Task | None = None
        self.closed = False

    def send(self, data: bytes) -> None:
        if self.closed:
            return
        self.sendq.append(data)
        self.send_event.set()


class _PendingOp:
    """One ordered operation awaiting its totally-ordered apply."""

    __slots__ = ("sid", "request_id", "op", "key", "submitted_at")

    def __init__(self, sid: int, request_id: int, op: str, key: str | None, submitted_at: float):
        self.sid = sid
        self.request_id = request_id
        self.op = op
        self.key = key
        self.submitted_at = submitted_at


class ClientGateway:
    """The gateway server attached to one replica.

    Args:
        node: the replica this gateway rides on (must be started by the
            caller; the gateway shares its event loop and records the
            ``gateway_*`` metrics into its registry).
        services: the replicated store to front, attached to *node*
            (:meth:`GatewayServices.attach`; attach the same store on
            every replica).
        local_reads: serve ``get`` from the local replica's current
            state instead of ordering it -- cheap but stale by up to the
            replica's delivery lag; see docs/GATEWAY.md for the caveats.
        max_sessions: admission bound on concurrent client sessions;
            connections past it are refused at accept.
    """

    def __init__(
        self,
        node: RitasNode,
        services: GatewayServices,
        *,
        local_reads: bool = False,
        max_sessions: int = 10_000,
    ):
        self.node = node
        self.services = services
        self.local_reads = local_reads
        self.max_sessions = max_sessions
        self._server: asyncio.base_events.Server | None = None
        self._http_server: asyncio.base_events.Server | None = None
        self._sessions: dict[int, _Session] = {}
        #: Keyed by AB msg_id ``(sender, rbid)``.
        self._pending: dict[tuple[int, int], _PendingOp] = {}
        self._next_sid = 0
        self._sweep_task: asyncio.Task | None = None
        self._closed = False
        #: Lifetime counters (served regardless of metrics being on).
        self.ops_ok = 0
        self.ops_retry_after = 0
        self.ops_error = 0
        self.ops_timeout = 0
        self.sessions_total = 0
        self.sessions_dropped = 0
        #: Failures attributed inside gateway plumbing (see
        #: :meth:`_internal_error`) -- never silently swallowed.
        self.internal_errors = 0
        self._logged_error_types: set[tuple[str, str]] = set()
        self._clock = time.monotonic
        self._chain_applied(services.kv.rsm)

    # -- lifecycle ----------------------------------------------------------------

    async def listen(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind the client listener; returns the bound port."""
        if self._server is not None:
            raise RuntimeError("gateway already listening")
        self._server = await asyncio.start_server(self._on_client, host=host, port=port)
        self._sweep_task = asyncio.create_task(self._sweep())
        return self._server.sockets[0].getsockname()[1]

    async def listen_http(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind the HTTP status endpoint; returns the bound port."""
        from repro.gateway.http import serve_status

        if self._http_server is not None:
            raise RuntimeError("status endpoint already listening")
        self._http_server = await serve_status(self, host=host, port=port)
        return self._http_server.sockets[0].getsockname()[1]

    @property
    def bound_port(self) -> int:
        if self._server is None:
            raise RuntimeError("gateway is not listening yet")
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting, drop every session, cancel every task.

        Idempotent, and clean by design: every task the gateway created
        is cancelled and awaited, every stream closed -- no "task was
        destroyed but it is pending" at interpreter exit.
        """
        if self._closed:
            return
        self._closed = True
        for server in (self._server, self._http_server):
            if server is not None:
                server.close()
        if self._sweep_task is not None:
            self._sweep_task.cancel()
        tasks: list[asyncio.Task] = [self._sweep_task] if self._sweep_task else []
        for session in list(self._sessions.values()):
            tasks.extend(self._teardown_session(session))
        self._sessions.clear()
        self._pending.clear()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for server in (self._server, self._http_server):
            if server is not None:
                await server.wait_closed()
        self._server = None
        self._http_server = None

    async def __aenter__(self) -> "ClientGateway":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- session management --------------------------------------------------------

    @property
    def sessions_open(self) -> int:
        return len(self._sessions)

    @property
    def inflight_ops(self) -> int:
        return len(self._pending)

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._closed or len(self._sessions) >= self.max_sessions:
            # Session admission: refuse at accept rather than degrade
            # every established session.
            writer.close()
            return
        sid = self._next_sid
        self._next_sid += 1
        session = _Session(sid, reader, writer)
        self._sessions[sid] = session
        self.sessions_total += 1
        metrics = self.node.metrics
        if metrics.enabled:
            metrics.counter(METRIC_SESSIONS_TOTAL).inc()
        session.writer_task = asyncio.create_task(self._session_writer(session))
        # The reader runs in the server's handler task itself.
        session.reader_task = asyncio.current_task()
        try:
            while not self._closed and not session.closed:
                data = await reader.read(65536)
                if not data:
                    break
                try:
                    frames = session.frames.feed(data)
                except ClientProtocolError as exc:
                    logger.debug("gateway s%d: bad framing: %s", sid, exc)
                    break
                if frames:
                    self._handle_frames(session, frames)
        except asyncio.CancelledError:
            pass
        except (ConnectionError, OSError):
            pass
        finally:
            for task in self._teardown_session(session):
                task.cancel()

    def _internal_error(self, context: str, exc: BaseException) -> None:
        """Account a failure inside gateway plumbing instead of
        swallowing it.

        Every occurrence increments :attr:`internal_errors` and the
        ``gateway_internal_errors_total`` counter (labeled by *context*
        and exception type); each distinct (context, type) pair is
        logged once with its detail, so a repeating failure is loud in
        the log exactly once and fully visible in the counters --
        silent drops are how the PR 7 correlation bug class hid.
        """
        self.internal_errors += 1
        error_type = type(exc).__name__
        metrics = self.node.metrics
        if metrics.enabled:
            metrics.counter(
                METRIC_INTERNAL_ERRORS, context=context, error=error_type
            ).inc()
        key = (context, error_type)
        if key not in self._logged_error_types:
            self._logged_error_types.add(key)
            logger.warning(
                "gateway internal error in %s: %s: %s "
                "(logged once per error type; see %s)",
                context,
                error_type,
                exc,
                METRIC_INTERNAL_ERRORS,
            )

    def _teardown_session(self, session: _Session) -> list[asyncio.Task]:
        """Mark *session* closed and return its tasks for cancellation.

        The calling task is never among them: a reader dropping its own
        session exits on ``session.closed``, and cancelling it from
        inside would end the server's handler task cancelled.
        """
        session.closed = True
        session.send_event.set()  # wake the writer so it can exit
        self._sessions.pop(session.sid, None)
        try:
            session.writer.close()
        except Exception as exc:
            # A transport refusing to close is survivable -- the session
            # is gone either way -- but never silently: attribute it.
            self._internal_error("session-teardown", exc)
        current = asyncio.current_task()
        return [
            task
            for task in (session.reader_task, session.writer_task)
            if task is not None and task is not current and not task.done()
        ]

    async def _session_writer(self, session: _Session) -> None:
        """Drain one session's response queue to its socket.

        Mirrors the replica transport's drain-once leaning: everything
        queued leaves in one flush, and the (possibly blocking)
        flow-control drain is awaited once per wakeup.
        """
        try:
            while not session.closed:
                await session.send_event.wait()
                if session.closed:
                    break
                while session.sendq:
                    session.writer.write(session.sendq.popleft())
                session.send_event.clear()
                await session.writer.drain()
        except asyncio.CancelledError:
            pass
        except (ConnectionError, OSError):
            session.closed = True

    # -- request handling ------------------------------------------------------------

    def _handle_frames(self, session: _Session, frames: list[bytes]) -> None:
        """Process one read-wakeup's worth of pipelined requests.

        All submissions triggered here share one flush window, so one
        wakeup's ordered ops are one atomic broadcast batch -- one
        reliable broadcast, ordered by one agreement slot, each op still
        delivered and answered on its own -- and the node's link flush
        sends the turn's frames as batched channel units.  This is where
        client pipelining turns into atomic-broadcast batching.
        """
        with self.node.stack.coalesce():
            for body in frames:
                if session.closed:
                    break  # dropped as a slow reader: nobody to answer
                self._handle_request(session, body)

    def _handle_request(self, session: _Session, body: bytes) -> None:
        now = self._clock()
        try:
            request_id, op, args = decode_request(body)
        except ClientProtocolError as exc:
            # Echo the recovered request id when the decoder salvaged
            # one; otherwise the reserved UNCORRELATED_ID sentinel --
            # never 0, which is a legitimate (and common) client id.
            rid = exc.request_id if exc.request_id is not None else UNCORRELATED_ID
            self._respond(session, rid, STATUS_ERROR, str(exc), op="?", started=now)
            return
        if op == "ping":
            self._respond(session, request_id, STATUS_OK, [None, None, "pong"], op=op, started=now)
            return
        try:
            command = self._build_command(op, args)
        except ClientProtocolError as exc:
            self._respond(session, request_id, STATUS_ERROR, str(exc), op=op, started=now)
            return
        key = args[0]
        if op in READ_OPS and self.local_reads:
            value = self.services.kv.get(key)
            self._respond(session, request_id, STATUS_OK, [None, None, value], op=op, started=now)
            return
        rsm = self.services.kv.rsm
        msg_id = rsm.try_submit(command)
        if msg_id is None:
            pending, cap = rsm.admission()
            detail = [pending, cap, RETRY_AFTER_MS]
            self._respond(session, request_id, STATUS_RETRY, detail, op=op, started=now)
            return
        session.inflight += 1
        self._pending[msg_id] = _PendingOp(session.sid, request_id, op, key, now)

    @staticmethod
    def _build_command(op: str, args: list[Any]) -> Command:
        """Translate one client request into a replicated command.

        Type errors are rejected *here*, with a message, rather than
        ordered and no-opped by the state machine's defensive apply.
        """
        if op == "put":
            key, value = args
            if not isinstance(key, str) or not isinstance(value, bytes):
                raise ClientProtocolError("put takes (str key, bytes value)")
            return KvCommand.put(key, value)
        if op == "get":
            (key,) = args
            if not isinstance(key, str):
                raise ClientProtocolError("get takes (str key)")
            # Ordered read: an op the KV apply function treats as a
            # deterministic no-op; the gateway answers from the state at
            # its serialization point in the group's total order.
            return Command("get", [key])
        if op == "delete":
            (key,) = args
            if not isinstance(key, str):
                raise ClientProtocolError("delete takes (str key)")
            return KvCommand.delete(key)
        if op == "cas":
            key, expected, value = args
            if (
                not isinstance(key, str)
                or not (expected is None or isinstance(expected, bytes))
                or not isinstance(value, bytes)
            ):
                raise ClientProtocolError("cas takes (str, bytes|None, bytes)")
            return KvCommand.cas(key, expected, value)
        raise ClientProtocolError(f"unknown op {op!r}")

    # -- completion ------------------------------------------------------------------

    def _chain_applied(self, rsm: ReplicatedStateMachine) -> None:
        """Hook *rsm*'s apply stream without displacing an existing hook."""
        previous = rsm.on_applied

        def on_applied(delivery, command: Command, result: Any) -> None:
            if previous is not None:
                previous(delivery, command, result)
            self._on_applied(delivery, command, result)

        rsm.on_applied = on_applied

    def _on_applied(self, delivery, command: Command, result: Any) -> None:
        if delivery.sender != self.node.process_id:
            return
        pending = self._pending.pop(delivery.msg_id, None)
        if pending is None:
            return
        session = self._sessions.get(pending.sid)
        if session is None:
            return
        session.inflight -= 1
        if pending.op == "get":
            # The read's serialization point is *this* apply: the local
            # state now reflects every write ordered before it.
            result = self.services.kv.get(pending.key)
        detail = [delivery.sender, delivery.rbid, result]
        self._respond(
            session,
            pending.request_id,
            STATUS_OK,
            detail,
            op=pending.op,
            started=pending.submitted_at,
        )

    def _respond(
        self,
        session: _Session,
        request_id: int,
        status: str,
        detail: Any,
        *,
        op: str,
        started: float,
    ) -> None:
        if status == STATUS_OK:
            self.ops_ok += 1
        elif status == STATUS_RETRY:
            self.ops_retry_after += 1
        else:
            self.ops_error += 1
        metrics = self.node.metrics
        if metrics.enabled:
            metrics.counter(METRIC_OPS, op=op, status=status).inc()
            metrics.histogram(METRIC_OP_LATENCY, op=op).observe(self._clock() - started)
        session.send(encode_response(request_id, status, detail))
        if len(session.sendq) > SESSION_SEND_QUEUE:
            # A client that stopped reading is shedding its own session,
            # not this process's memory.
            self.sessions_dropped += 1
            if metrics.enabled:
                metrics.counter(METRIC_SESSIONS_DROPPED).inc()
            for task in self._teardown_session(session):
                task.cancel()

    # -- maintenance -----------------------------------------------------------------

    async def _sweep(self) -> None:
        """Periodic upkeep: expire stuck ordered ops, refresh gauges."""
        try:
            while not self._closed:
                await asyncio.sleep(SWEEP_INTERVAL_S)
                self._expire_pending()
                self.sample_gauges()
        except asyncio.CancelledError:
            pass

    def _expire_pending(self) -> None:
        if not self._pending:
            return
        deadline = self._clock() - OP_TIMEOUT_S
        expired = [
            (key, op) for key, op in self._pending.items()
            if op.submitted_at <= deadline
        ]
        for key, pending in expired:
            del self._pending[key]
            self.ops_timeout += 1
            session = self._sessions.get(pending.sid)
            if session is None:
                continue
            session.inflight -= 1
            self._respond(
                session,
                pending.request_id,
                STATUS_ERROR,
                "timeout",
                op=pending.op,
                started=pending.submitted_at,
            )

    def sample_gauges(self) -> None:
        """Refresh the gateway gauges (a no-op with metrics disabled)."""
        metrics = self.node.metrics
        if not metrics.enabled:
            return
        metrics.gauge(METRIC_SESSIONS_OPEN).set(len(self._sessions))
        metrics.gauge(METRIC_INFLIGHT).set(len(self._pending))
        metrics.gauge(METRIC_SEND_QUEUE).set(
            sum(len(s.sendq) for s in self._sessions.values())
        )

    def status(self) -> dict[str, Any]:
        """JSON-ready snapshot served by the HTTP status endpoint."""
        pending, cap = self.services.kv.rsm.admission()
        return {
            "process": self.node.process_id,
            "group_size": self.node.config.num_processes,
            "local_reads": self.local_reads,
            "sessions_open": len(self._sessions),
            "sessions_total": self.sessions_total,
            "sessions_dropped": self.sessions_dropped,
            "inflight_ops": len(self._pending),
            "ops_ok": self.ops_ok,
            "ops_retry_after": self.ops_retry_after,
            "ops_error": self.ops_error,
            "ops_timeout": self.ops_timeout,
            "internal_errors": self.internal_errors,
            "admission": {"pending": pending, "cap": cap},
        }

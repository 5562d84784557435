"""Open-loop load generation against a gateway.

The experimental-methodology point this module exists for: a
*closed-loop* harness client (submit, wait, submit) can never drive a
system into the queueing regime, because its own waiting throttles the
arrival rate -- exactly the regime admission control and retry-after
exist for.  Here arrivals are a seeded **Poisson process**: operations
fire at their scheduled instants whether or not earlier ones have
completed, spread across a pool of concurrent sessions, with the key
popularity following a **Zipf** skew (the canonical shape of real KV
traffic) and a configurable read/write mix.

The schedule is built *ahead of time* as a pure function of the profile
(:func:`build_schedule`), so a seed fully determines the arrival
instants, the op kinds and the key sequence -- runs are replayable and
two generators with the same profile are comparable sample-for-sample.

Per-op latency lands in :mod:`repro.obs` histograms
(``gateway_client_op_latency_seconds``), and :class:`LoadReport` breaks
the outcome down into goodput / retry-after / timeout / error, plus the
acknowledged-write audit trail (every ``ok`` write's atomic-broadcast
message id) that lets a benchmark prove no acknowledged write was lost
or duplicated.

The chaos harness (:func:`run_load_with_churn` with a
:class:`ChurnPlan` and the :func:`chaos_profile`) runs the same
open-loop generator while scheduled fault actions -- crash a replica,
rejoin it through the recovery path -- fire mid-run, which is exactly
when the audit trail earns its keep.
"""

from __future__ import annotations

import asyncio
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any

from repro.gateway.protocol import (
    STATUS_OK,
    STATUS_RETRY,
    encode_request,
    decode_response,
    read_frame,
)
from repro.obs.metrics import Histogram, MetricsRegistry

#: Loadgen metric names (part of the ``gateway_*`` family).
METRIC_CLIENT_LATENCY = "gateway_client_op_latency_seconds"
METRIC_CLIENT_OPS = "gateway_client_ops_total"


@dataclass(frozen=True)
class LoadProfile:
    """Everything that determines a load run's schedule.

    Attributes:
        sessions: concurrent client connections.
        rate: mean arrival rate, operations/second (Poisson).
        ops: total operations in the schedule.
        read_fraction: probability an arrival is a ``get``.
        zipf_s: Zipf skew exponent over the key space (1.0 ≈ classic
            web skew; higher = hotter hot keys; 0 = uniform).
        key_space: number of distinct keys.
        value_bytes: size of written values.
        seed: master seed; same profile -> same schedule, bit for bit.
    """

    sessions: int = 100
    rate: float = 500.0
    ops: int = 1000
    read_fraction: float = 0.5
    zipf_s: float = 1.1
    key_space: int = 1000
    value_bytes: int = 32
    seed: int = 1


@dataclass(frozen=True)
class ScheduledOp:
    """One arrival: when, on which session, doing what."""

    at: float  # seconds from load start
    session: int
    op: str  # "get" or "put"
    key: str
    value: bytes | None


def _zipf_cdf(key_space: int, s: float) -> list[float]:
    """Cumulative weights of the (unnormalized) Zipf(s) distribution."""
    total = 0.0
    cdf = []
    for rank in range(1, key_space + 1):
        total += rank ** -s if s > 0 else 1.0
        cdf.append(total)
    return cdf


def build_schedule(profile: LoadProfile) -> list[ScheduledOp]:
    """The full, deterministic arrival schedule for *profile*.

    Inter-arrival gaps are exponential with mean ``1/rate`` (a Poisson
    process); each arrival draws its session uniformly, its kind from
    the read/write mix, and its key from the Zipf skew.  Values encode
    the op's schedule index, so every write is distinguishable.
    """
    rng = random.Random(f"gateway-load/{profile.seed}")
    cdf = _zipf_cdf(profile.key_space, profile.zipf_s)
    total = cdf[-1]
    schedule: list[ScheduledOp] = []
    now = 0.0
    pad = len(str(profile.key_space - 1))
    for index in range(profile.ops):
        now += rng.expovariate(profile.rate)
        session = rng.randrange(profile.sessions)
        rank = bisect_left(cdf, rng.random() * total)
        key = f"k{rank:0{pad}d}"
        if rng.random() < profile.read_fraction:
            schedule.append(ScheduledOp(now, session, "get", key, None))
        else:
            value = f"op{index}/".encode().ljust(profile.value_bytes, b".")
            schedule.append(ScheduledOp(now, session, "put", key, value))
    return schedule


@dataclass
class LoadReport:
    """Outcome of one load run."""

    profile: LoadProfile
    duration_s: float = 0.0
    sent: int = 0
    ok: int = 0
    retry_after: int = 0
    timeouts: int = 0
    errors: int = 0
    #: (sender, rbid) of every acknowledged ordered op, in ack order --
    #: the audit trail for lost/duplicated-write checks.
    acked_ids: list[tuple[int, int]] = field(default_factory=list)
    #: p50/p95/p99 over acknowledged-op latency, seconds.
    latency_p50_s: float = 0.0
    latency_p95_s: float = 0.0
    latency_p99_s: float = 0.0

    @property
    def goodput_ops_s(self) -> float:
        return self.ok / self.duration_s if self.duration_s > 0 else 0.0

    def summary(self) -> str:
        lines = [
            f"open-loop load: {self.sent} ops over {self.duration_s:.2f}s "
            f"({self.profile.sessions} sessions, rate {self.profile.rate:.0f}/s, "
            f"seed {self.profile.seed})",
            f"  goodput     {self.goodput_ops_s:10.1f} acked ops/s",
            f"  ok          {self.ok:10d}",
            f"  retry-after {self.retry_after:10d}",
            f"  timeout     {self.timeouts:10d}",
            f"  error       {self.errors:10d}",
            f"  latency p50 {self.latency_p50_s * 1e3:10.2f} ms",
            f"  latency p95 {self.latency_p95_s * 1e3:10.2f} ms",
            f"  latency p99 {self.latency_p99_s * 1e3:10.2f} ms",
        ]
        return "\n".join(lines)


class _LoadSession:
    """One loadgen connection and its in-flight bookkeeping."""

    __slots__ = ("reader", "writer", "inflight", "task")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        #: request_id -> (op kind, due instant)
        self.inflight: dict[int, tuple[str, float]] = {}
        self.task: asyncio.Task | None = None


async def run_load(
    host: str,
    port: int,
    profile: LoadProfile,
    *,
    registry: MetricsRegistry | None = None,
    drain_timeout_s: float = 30.0,
) -> LoadReport:
    """Run *profile* against the gateway at ``host:port``.

    Open loop: every scheduled op is written at its arrival instant
    (never delayed by earlier ops' completion) and its latency runs from
    that instant, however late the write happened; responses are
    collected by per-session reader tasks.  After the last arrival,
    in-flight ops get *drain_timeout_s* to complete; stragglers count
    as timeouts.
    """
    loop = asyncio.get_running_loop()
    registry = registry if registry is not None else MetricsRegistry()
    latency = registry.histogram(METRIC_CLIENT_LATENCY)
    report = LoadReport(profile=profile)
    schedule = build_schedule(profile)
    sessions: list[_LoadSession] = []
    for _ in range(profile.sessions):
        reader, writer = await asyncio.open_connection(host, port)
        sessions.append(_LoadSession(reader, writer))
    done = asyncio.Event()
    outstanding = 0
    draining = False

    def settle(session: _LoadSession, request_id: int, status: str, detail: Any) -> None:
        nonlocal outstanding
        entry = session.inflight.pop(request_id, None)
        if entry is None:
            return
        op, due_at = entry
        outstanding -= 1
        elapsed = loop.time() - due_at
        if status == STATUS_OK:
            report.ok += 1
            latency.observe(elapsed)
            if registry.enabled:
                registry.counter(METRIC_CLIENT_OPS, op=op, outcome="ok").inc()
            if isinstance(detail, list) and len(detail) == 3 and detail[0] is not None:
                report.acked_ids.append((detail[0], detail[1]))
        elif status == STATUS_RETRY:
            report.retry_after += 1
            if registry.enabled:
                registry.counter(METRIC_CLIENT_OPS, op=op, outcome="retry-after").inc()
        else:
            report.errors += 1
            if registry.enabled:
                registry.counter(METRIC_CLIENT_OPS, op=op, outcome="error").inc()
        if draining and outstanding == 0:
            done.set()

    async def session_reader(session: _LoadSession) -> None:
        try:
            while True:
                body = await read_frame(session.reader)
                request_id, status, detail = decode_response(body)
                settle(session, request_id, status, detail)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            pass

    for session in sessions:
        session.task = asyncio.create_task(session_reader(session))

    start = loop.time()
    next_request_id = 0
    try:
        for scheduled in schedule:
            delay = start + scheduled.at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            session = sessions[scheduled.session]
            request_id = next_request_id
            next_request_id += 1
            if scheduled.op == "get":
                frame = encode_request(request_id, "get", [scheduled.key])
            else:
                frame = encode_request(request_id, "put", [scheduled.key, scheduled.value])
            # Timed from the instant the op was due, not the instant the
            # loop got round to writing it: a stall is charged to every
            # op it delays.
            session.inflight[request_id] = (scheduled.op, start + scheduled.at)
            outstanding += 1
            report.sent += 1
            session.writer.write(frame)
        # Flush every session's transport buffer once the schedule ends.
        await asyncio.gather(
            *(s.writer.drain() for s in sessions), return_exceptions=True
        )
        draining = True
        if outstanding:
            try:
                await asyncio.wait_for(done.wait(), timeout=drain_timeout_s)
            except asyncio.TimeoutError:
                pass
    finally:
        report.duration_s = loop.time() - start
        for session in sessions:
            if session.task is not None:
                session.task.cancel()
            session.writer.close()
        await asyncio.gather(
            *(s.task for s in sessions if s.task is not None), return_exceptions=True
        )
    report.timeouts = sum(len(s.inflight) for s in sessions)
    report.latency_p50_s = _finite(latency, 0.50)
    report.latency_p95_s = _finite(latency, 0.95)
    report.latency_p99_s = _finite(latency, 0.99)
    return report


def _finite(histogram: Histogram, q: float) -> float:
    value = histogram.quantile(q)
    return value if value == value else 0.0  # NaN -> 0.0 (no samples)


# -- chaos: load under replica churn -----------------------------------------------


def chaos_profile(*, seed: int = 1) -> LoadProfile:
    """The loadgen profile the churn tests run: write-heavy (the audit
    trail is the point), a small key space, and a modest op count so
    the crash and the rejoin both land *inside* the run."""
    return LoadProfile(
        sessions=20,
        rate=400.0,
        ops=250,
        read_fraction=0.3,
        key_space=64,
        value_bytes=24,
        seed=seed,
    )


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled fault action, *at* seconds from load start."""

    at: float
    replica: int
    action: str  # "crash" or "restart"


@dataclass(frozen=True)
class ChurnPlan:
    """A deterministic fault schedule run alongside an open-loop load."""

    events: tuple[ChurnEvent, ...]

    @classmethod
    def crash_restart(
        cls, replica: int, *, crash_at: float, restart_at: float
    ) -> "ChurnPlan":
        return cls(
            events=(
                ChurnEvent(crash_at, replica, "crash"),
                ChurnEvent(restart_at, replica, "restart"),
            )
        )


async def run_load_with_churn(
    host: str,
    port: int,
    profile: LoadProfile,
    *,
    plan: ChurnPlan,
    crash: Any,
    restart: Any,
    registry: MetricsRegistry | None = None,
    drain_timeout_s: float = 30.0,
) -> LoadReport:
    """Run *profile* while *plan*'s churn events fire on schedule.

    *crash* and *restart* are async callables ``(replica) -> None``
    supplied by the harness (closing a node, rebinding its port and
    rejoining it through the recovery path); the loadgen stays a pure
    client and never reaches into the group.  The returned report's
    ``acked_ids`` is the audit trail: zero lost and zero duplicated
    acknowledged writes under churn is the gateway's headline claim,
    and the chaos test asserts it against the replicas' applied log.
    """

    async def drive() -> None:
        loop = asyncio.get_event_loop()
        start = loop.time()
        for event in plan.events:
            delay = start + event.at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if event.action == "crash":
                await crash(event.replica)
            elif event.action == "restart":
                await restart(event.replica)
            else:
                raise ValueError(f"unknown churn action {event.action!r}")

    report, _ = await asyncio.gather(
        run_load(
            host, port, profile, registry=registry, drain_timeout_s=drain_timeout_s
        ),
        drive(),
    )
    return report

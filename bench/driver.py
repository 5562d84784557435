"""The benchmark process's side of one round: spawn a fresh cluster
process, drive it, audit it, and turn what was seen into metric values.

The load generator is this process: one thread (one asyncio loop), two
pipelined client connections.  It is open loop: every op is written at
its due instant whatever earlier ops are doing, and its latency runs
from that *due* instant to its ack, so a stall is charged to every op
it delays; ``client.late_p99_ms`` reports how late the writes ran.
"""

from __future__ import annotations

import asyncio
import os
import random
import statistics
import sys
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Sequence

from bench import ROOT, audit, offline, spec
from bench.audit import OpRecord
from bench.cluster import ISOLATED_RUNS, pack_message, read_message
from repro.apps.kv_store import KvCommand
from repro.apps.state_machine import Command
from repro.gateway.loadgen import LoadProfile, ScheduledOp, build_schedule
from repro.gateway.protocol import FrameReader, decode_response, encode_request

CONNECTIONS = 2
PING_HZ = 10.0
#: Nominal seconds one burst takes; fixes how many bursts fill a window
#: so the count depends on ``--seconds`` alone, never on the speed seen.
BURST_NOMINAL_S = 1.5
#: Request ids of probes, kept clear of schedule indices.
_PING_BASE = 1 << 40


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def make_schedule(workload: spec.Workload, seed: int, round_index: int, seconds: float):
    """The round's arrivals: ``build_schedule`` with schedule seed
    ``seed*1000 + round``, cut at *seconds*.  Same arguments, same ops."""
    profile = LoadProfile(
        sessions=CONNECTIONS,
        rate=workload.rate,
        ops=int(workload.rate * seconds * 1.25) + 64,
        read_fraction=workload.read_fraction,
        zipf_s=1.1,
        key_space=1000,
        value_bytes=32,
        seed=seed * 1000 + round_index,
    )
    return [op for op in build_schedule(profile) if op.at < seconds]


def make_burst(workload: spec.Workload, seed: int, round_index: int, burst: int) -> bytes:
    """The payloads of one burst, concatenated; distinct random bytes
    per message, so content-addressed memos see what real traffic
    would show them."""
    rng = random.Random(f"bench-burst/{seed}/{round_index}/{burst}")
    return rng.randbytes(workload.burst_count * workload.burst_bytes)


class ClusterProcess:
    """Handle on one ``python -m bench.cluster`` child."""

    def __init__(self, proc: asyncio.subprocess.Process, spawned: float, port: int):
        self.proc = proc
        self.spawned = spawned
        self.port = port
        self._lock = asyncio.Lock()

    @classmethod
    async def spawn(cls, workload: spec.Workload, traced: bool) -> "ClusterProcess":
        argv = [sys.executable, "-m", "bench.cluster", "--kind", workload.kind]
        if workload.local_reads:
            argv.append("--local-reads")
        if traced:
            argv.append("--trace")
        spawned = time.monotonic()
        proc = await asyncio.create_subprocess_exec(
            *argv,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            cwd=str(ROOT),
            env=dict(os.environ, PYTHONPATH=str(ROOT)),
        )
        try:
            ready, _ = await asyncio.wait_for(read_message(proc.stdout), timeout=60.0)
        except BaseException:
            proc.kill()
            await proc.wait()
            raise
        return cls(proc, spawned, ready["port"])

    async def call(self, cmd: str, blob: bytes = b"", **fields: Any) -> dict[str, Any]:
        async with self._lock:
            self.proc.stdin.write(pack_message({"cmd": cmd, **fields}, blob))
            await self.proc.stdin.drain()
            reply, _ = await asyncio.wait_for(read_message(self.proc.stdout), timeout=150.0)
            return reply

    async def stop(self) -> dict[str, Any]:
        """Ask the child to close its nodes and exit; returns its last
        counter snapshot.  The child is always reaped."""
        try:
            final = await self.call("stop")
            await asyncio.wait_for(self.proc.wait(), timeout=30.0)
            return final
        finally:
            await self.kill()

    async def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
        await self.proc.wait()


@dataclass
class RoundResult:
    """One round's values.  ``end_to_end`` holds every end-to-end
    metric; ``layer`` is filled by a traced round only."""

    end_to_end: dict[str, float]
    attempted: int
    failed: int
    violations: list[str]
    layer: dict[str, float] = field(default_factory=dict)
    ledger: list[tuple[str, float]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


# -- kv rounds ---------------------------------------------------------------------


class _KvClient:
    """Two pipelined connections, a sender on the schedule, readers
    stamping acks."""

    def __init__(self, schedule: list[ScheduledOp]):
        self.ops = [
            OpRecord(index, op.op, op.key, op.value) for index, op in enumerate(schedule)
        ]
        self.schedule = schedule
        self.frames = [
            encode_request(
                index, op.op, [op.key] if op.op == "get" else [op.key, op.value]
            )
            for index, op in enumerate(schedule)
        ]
        self.writers: list[asyncio.StreamWriter] = []
        self.pings: dict[int, float] = {}
        self.ping_rtt: list[tuple[float, float]] = []
        self.responses: list[bytes] = []
        self.outstanding = 0
        self.all_acked = asyncio.Event()
        self._next_ping = _PING_BASE
        self._tasks: list[asyncio.Task] = []

    async def connect(self, port: int) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            self.writers.append(writer)
            self._tasks.append(asyncio.create_task(self._read(reader)))

    async def close(self) -> None:
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        for writer in self.writers:
            writer.close()
        await asyncio.gather(*(w.wait_closed() for w in self.writers), return_exceptions=True)

    async def _read(self, reader: asyncio.StreamReader) -> None:
        frames = FrameReader()
        while True:
            data = await reader.read(1 << 16)
            if not data:
                return
            now = time.monotonic()
            for body in frames.feed(data):
                request_id, status, detail = decode_response(body)
                if request_id >= _PING_BASE:
                    sent = self.pings.pop(request_id, None)
                    if sent is not None:
                        self.ping_rtt.append((now, now - sent))
                    continue
                op = self.ops[request_id]
                op.acks += 1
                if op.acks > 1:
                    continue
                op.acked = now
                op.status = status
                if len(self.responses) < 2000:
                    self.responses.append(body)
                if status == "ok" and isinstance(detail, list) and len(detail) == 3:
                    if detail[0] is not None:
                        op.msg_id = (detail[0], detail[1])
                    op.result = detail[2]
                else:
                    op.result = detail
                self.outstanding -= 1
                if self.outstanding == 0:
                    self.all_acked.set()

    def ping(self, connection: int) -> None:
        request_id = self._next_ping
        self._next_ping += 1
        self.pings[request_id] = time.monotonic()
        self.writers[connection].write(encode_request(request_id, "ping", []))

    async def first_ping(self) -> None:
        """Setup ends when the gateway has answered one ping."""
        self.ping(0)
        while not self.ping_rtt:
            await asyncio.sleep(0.001)
        self.ping_rtt.clear()

    async def send_all(self, origin: float) -> None:
        """Write every op at ``origin + op.at``; never waits for acks."""
        writers = self.writers
        for index, scheduled in enumerate(self.schedule):
            due = origin + scheduled.at
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            op = self.ops[index]
            op.due = due
            self.outstanding += 1
            self.all_acked.clear()
            op.sent = time.monotonic()
            writers[scheduled.session].write(self.frames[index])

    async def ping_forever(self) -> None:
        connection = 0
        while True:
            await asyncio.sleep(1.0 / (PING_HZ * CONNECTIONS))
            self.ping(connection)
            connection = (connection + 1) % CONNECTIONS


async def kv_round(
    workload: spec.Workload,
    seed: int,
    round_index: int,
    warmup_s: float,
    measure_s: float,
    *,
    traced: bool = False,
    trace_out: str | None = None,
    corrupt: bool = False,
) -> RoundResult:
    schedule = make_schedule(workload, seed, round_index, warmup_s + measure_s)
    client = _KvClient(schedule)
    cluster = await ClusterProcess.spawn(workload, traced)
    try:
        await client.connect(cluster.port)
        await client.first_ping()
        setup_s = time.monotonic() - cluster.spawned

        origin = time.monotonic() + 0.05
        opens = origin + warmup_s
        closes = opens + measure_s
        marks: list[dict[str, Any]] = []
        crashed_at = 0.0

        async def window() -> None:
            nonlocal crashed_at
            await asyncio.sleep(opens - time.monotonic())
            if workload.crash is not None:
                crashed_at = (await cluster.call("crash", pid=workload.crash))["t"]
            marks.append(await cluster.call("mark"))
            await asyncio.sleep(closes - time.monotonic())
            marks.append(await cluster.call("mark"))

        window_task = asyncio.create_task(window())
        background = [window_task]
        if traced:
            background.append(asyncio.create_task(client.ping_forever()))
        try:
            await client.send_all(origin)
            await window_task
            if client.outstanding:
                try:
                    await asyncio.wait_for(client.all_acked.wait(), timeout=spec.DRAIN_S)
                except asyncio.TimeoutError:
                    pass
        finally:
            for task in background:
                task.cancel()
            await asyncio.gather(*background, return_exceptions=True)
        quiet = (await cluster.call("quiesce", timeout_s=spec.DRAIN_S))["quiet"]
        dump = await cluster.call("dump")
        report = None
        if traced:
            report = await cluster.call(
                "trace", since=marks[0]["t"], until=marks[1]["t"], out=trace_out
            )
        final = await cluster.stop()
    finally:
        await client.close()
        await cluster.kill()

    if corrupt:
        # Self-test: pretend replica 0 applied an entry twice.
        dump["logs"]["0"].insert(1, dump["logs"]["0"][0])
        dump["commands"].insert(1, dump["commands"][0])
    violations = audit.check_kv(client.ops, dump)
    if not quiet:
        violations.append("live replicas' logs never settled to one length")

    ops = client.ops
    measured = [op for op in ops if opens <= op.due < closes]
    done = [op for op in measured if op.ok]
    failed = sum(1 for op in ops if not op.ok)
    latency = [op.latency_ms for op in done]
    writes = [op.latency_ms for op in done if op.op == "put"]
    reads = [op.latency_ms for op in done if op.op == "get"]
    acked_inside = sum(1 for op in ops if op.ok and opens <= op.acked < closes)
    end_to_end = {
        "setup_s": setup_s,
        "op_p50_ms": quantile(latency, 0.5),
        "write_p50_ms": quantile(writes, 0.5),
        # Offered rate times the share of it answered inside the window:
        # falls when acks lag arrivals or ops fail, and is free of the
        # Poisson noise in how many ops a seed puts into the window.
        "goodput_ops_s": workload.rate * acked_inside / max(len(measured), 1),
        "peak_rss_mb": final["rss_mb"],
    }
    result = RoundResult(end_to_end, len(ops), failed, violations)
    if not traced:
        return result

    m0, m1 = marks
    inside = [op for op in ops if op.ok and m0["t"] <= op.acked < m1["t"]]
    count = max(len(inside), 1)
    layer = _layer_metrics(m0, m1, count, report, result)
    late = [(op.sent - op.due) * 1e3 for op in measured]
    warm = [op.latency_ms for op in ops if op.ok and op.due < opens]
    layer.update(
        {
            "client.op_p90_ms": quantile(latency, 0.9),
            "client.op_p99_ms": quantile(latency, 0.99),
            "client.read_p50_ms": quantile(reads, 0.5),
            "client.samples": float(len(latency)),
            "client.warmup_p50_ms": quantile(warm, 0.5),
            "client.late_p99_ms": quantile(late, 0.99),
            "gateway.ping_p50_ms": quantile(
                [rtt * 1e3 for at, rtt in client.ping_rtt if opens <= at < closes], 0.5
            ),
            "gateway.inflight_p95": quantile([s[2] for s in report["samples"]], 0.95),
            "gateway.retry_after_share": sum(1 for op in ops if op.status == "retry-after")
            / len(ops),
            "apps.replica_lag_p50_ms": quantile(report["replica_lag_s"], 0.5) * 1e3,
        }
    )
    if workload.crash is not None:
        after = [op.latency_ms for op in done if op.due >= crashed_at]
        acks = sorted(op.acked for op in ops if op.ok and op.acked >= opens - 0.5)
        gaps = [b - a for a, b in zip(acks, acks[1:]) if a <= crashed_at + 2.0]
        layer["client.post_crash_p50_ms"] = quantile(after, 0.5)
        layer["client.crash_gap_ms"] = max(gaps, default=0.0) * 1e3
    commands = [
        Command("get", [op.key]) if op.op == "get" else KvCommand.put(op.key, op.value)
        for op in schedule[:2000]
    ]
    layer.update(
        offline.time_client_codecs(
            [frame[4:] for frame in client.frames], client.responses, commands
        )
    )
    # CPU per op in the last quarter of the window over the first.
    samples = report["samples"]
    quarter = (m1["t"] - m0["t"]) / 4

    def cpu_per_op(since: float, until: float) -> float:
        span = [s for s in samples if since <= s[0] < until]
        acks = sum(1 for op in inside if since <= op.acked < until)
        return (span[-1][1] - span[0][1]) / acks if len(span) > 1 and acks else 0.0

    first = cpu_per_op(m0["t"], m0["t"] + quarter)
    last = cpu_per_op(m1["t"] - quarter, m1["t"])
    layer["runtime.cpu_drift_ratio"] = last / first if first else 0.0
    if layer["client.late_p99_ms"] > spec.MAX_LATE_P99_MS:
        result.notes.append(
            f"VOID: the generator ran late (client.late_p99_ms = "
            f"{layer['client.late_p99_ms']:.1f} > {spec.MAX_LATE_P99_MS})"
        )
    result.layer = layer
    return result


# -- burst rounds --------------------------------------------------------------------


async def burst_round(
    workload: spec.Workload,
    seed: int,
    round_index: int,
    bursts: int,
    *,
    traced: bool = False,
    trace_out: str | None = None,
    corrupt: bool = False,
) -> RoundResult:
    count, size = workload.burst_count, workload.burst_bytes
    submitted: list[tuple[tuple[int, int], int]] = []

    def note(blob: bytes, message_size: int, ids: list[list[int]]) -> None:
        for index, (sender, rbid) in enumerate(ids):
            payload = blob[index * message_size : (index + 1) * message_size]
            submitted.append(((sender, rbid), zlib.crc32(payload)))

    cluster = await ClusterProcess.spawn(workload, traced)
    try:
        first = random.Random(f"bench-setup/{seed}/{round_index}").randbytes(4 * size)
        reply = await cluster.call("burst", first, count=4, size=size)
        setup_s = time.monotonic() - cluster.spawned
        note(first, size, reply["ids"])

        blob = make_burst(workload, seed, round_index, 0)  # warm-up burst
        note(blob, size, (await cluster.call("burst", blob, count=count, size=size))["ids"])
        m0 = await cluster.call("mark")
        replies = []
        for burst in range(1, bursts + 1):
            blob = make_burst(workload, seed, round_index, burst)
            reply = await cluster.call("burst", blob, count=count, size=size)
            note(blob, size, reply["ids"])
            replies.append(reply)
        m1 = await cluster.call("mark")
        quiet = (await cluster.call("quiesce", timeout_s=spec.DRAIN_S))["quiet"]
        dump = await cluster.call("dump")
        report = None
        if traced:
            report = await cluster.call("trace", since=m0["t"], until=m1["t"], out=trace_out)
        final = await cluster.stop()
    finally:
        await cluster.kill()

    if corrupt:
        # Self-test: pretend replica 1 delivered two messages swapped.
        log = dump["logs"]["1"]
        log[0], log[1] = log[1], log[0]
    violations = audit.check_burst(submitted, dump, live=4)
    if not quiet:
        violations.append("replicas' delivery sequences never settled to one length")
    delivered = min(len(log) for log in dump["logs"].values())
    latency = [seconds * 1e3 for reply in replies for seconds in reply["latency_s"]]
    wall = sum(reply["wall_s"] for reply in replies)
    p50 = quantile(latency, 0.5)
    end_to_end = {
        "setup_s": setup_s,
        "op_p50_ms": p50,
        "write_p50_ms": p50,  # every burst message is an ordered write
        "goodput_ops_s": bursts * count / wall,
        "peak_rss_mb": final["rss_mb"],
    }
    attempted = len(submitted)
    result = RoundResult(end_to_end, attempted, attempted - min(delivered, attempted), violations)
    if traced:
        layer = _layer_metrics(m0, m1, bursts * count, report, result)
        first_cpu, last_cpu = replies[0]["cpu_s"], replies[-1]["cpu_s"]
        layer["runtime.cpu_drift_ratio"] = last_cpu / first_cpu if first_cpu else 0.0
        result.layer = layer
    return result


# -- per-layer metrics ------------------------------------------------------------------

#: Span layers printed in the ledger, in stack order; anything else
#: recorded (the benchmark's own delivery recorder) goes under "bench".
_LEDGER_LAYERS = ("gateway", "apps", "ab", "mvc", "vc", "bc", "eb", "rb", "stack", "gc")


def _layer_metrics(
    m0: dict[str, Any], m1: dict[str, Any], ops: int, report: dict[str, Any],
    result: RoundResult,
) -> dict[str, float]:
    """Per-layer values that are differences of the two counter
    snapshots, or aggregates of the trace, per answered op."""

    def delta(key: str) -> float:
        return m1[key] - m0[key]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    elapsed = delta("t")
    cpu = delta("cpu_s")
    layers = report["layers"]

    def self_ms(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0) / ops * 1e3

    rounds = {
        int(r): c - m0["bc_rounds"].get(r, 0) for r, c in m1["bc_rounds"].items()
    }
    decisions = sum(rounds.values())
    counters = {
        key: value - m0["counters"].get(key, 0) for key, value in m1["counters"].items()
    }
    codec = report["codec"]
    live = m1["live"]
    received_per_op = delta("frames_received") / ops
    wire_est = (
        received_per_op
        * (codec.get("wire.fastpath_cold_us", 0.0) / live
           + codec.get("wire.fastpath_warm_us", 0.0) * (live - 1) / live)
        + delta("frames_sent") / live / ops * codec.get("wire.encode_us", 0.0)
        + delta("batches_received") / ops * codec.get("wire.batch_split_us", 0.0)
    ) / 1e3
    framing_est = (
        (m1["units_remote"] - m0["units_remote"]) / ops
        * (codec.get("framing.encode_us", 0.0) + codec.get("framing.decode_us", 0.0))
    ) / 1e3

    spans_ms = {layer: self_ms(layer) for layer in _LEDGER_LAYERS}
    bench_ms = sum(self_ms(layer) for layer in layers if layer not in _LEDGER_LAYERS)
    cpu_ms = cpu / ops * 1e3
    residual_ms = cpu_ms - sum(spans_ms.values()) - bench_ms
    result.ledger = (
        [(f"{layer} self", spans_ms[layer]) for layer in _LEDGER_LAYERS]
        + [("bench hooks self", bench_ms), ("residual (asyncio, tcp, sendq)", residual_ms)]
    )
    parts = sum(spans_ms.values()) + bench_ms + max(residual_ms, 0.0)
    result.notes.append(
        f"ledger: parts sum to {parts:.4f} ms/op against {cpu_ms:.4f} ms/op of process CPU "
        f"({(parts / cpu_ms - 1) * 100 if cpu_ms else 0.0:+.1f}%); of which offline estimates: "
        f"wire {wire_est:.4f} (inside stack self), framing {framing_est:.4f} (inside residual)"
    )
    if cpu_ms and abs(parts / cpu_ms - 1) > 0.10:
        result.notes.append("VOID: ledger parts differ from process CPU by more than 10%")

    layer = dict(codec)
    layer.update(
        {
            "audit.failed_op_share": result.failed / result.attempted,
            "audit.safety_violations": float(len(result.violations)),
            "gateway.respond_self_ms_per_op": spans_ms["gateway"],
            "apps.self_ms_per_op": spans_ms["apps"],
            "ab.self_ms_per_op": spans_ms["ab"],
            "mvc.self_ms_per_op": spans_ms["mvc"],
            "bc.self_ms_per_op": spans_ms["bc"],
            "rb.self_ms_per_op": spans_ms["rb"],
            "eb.self_ms_per_op": spans_ms["eb"],
            "stack.receive_self_ms_per_op": spans_ms["stack"],
            "runtime.gc_ms_per_op": spans_ms["gc"],
            "rb.inputs_per_op": layers.get("rb", {}).get("inputs", 0) / ops,
            "eb.inputs_per_op": layers.get("eb", {}).get("inputs", 0) / ops,
            "ab.submit_to_deliver_p50_ms": quantile(report["submit_to_deliver_s"], 0.5) * 1e3,
            "ab.ops_per_agreement": ratio(
                delta("delivered"), delta("agreements") - delta("agreements_empty")
            ),
            "ab.agreements_per_s": delta("agreements") / elapsed,
            "mvc.bottom_share": ratio(
                counters.get("mvc.bottoms", 0), counters.get("mvc.decisions", 0)
            ),
            "bc.rounds_mean": ratio(sum(r * c for r, c in rounds.items()), decisions),
            "bc.rounds_max": float(max((r for r, c in rounds.items() if c), default=0)),
            "stack.frames_per_op": delta("frames_sent") / ops,
            "stack.bytes_per_op": delta("bytes_sent") / ops,
            "stack.frames_per_batch": ratio(
                delta("frames_decoalesced"), delta("batches_received")
            ),
            "stack.ooc_stored_per_op": delta("ooc_stored") / ops,
            "stack.live_instances_per_op": delta("live_instances") / ops,
            "stack.dropped_total": float(m1["dropped"]),
            "wire.est_ms_per_op": wire_est,
            "framing.est_ms_per_op": framing_est,
            "tcp.sendq_depth_p95": quantile([s[3] for s in report["samples"]], 0.95),
            "tcp.units_per_link_batch": ratio(
                delta("link_units_batched"), delta("link_batches")
            ),
            "tcp.frames_shed": float(m1["frames_shed"]),
            "tcp.frames_rejected": float(m1["frames_rejected"]),
            "tcp.connect_attempts": float(m1["connect_attempts"]),
            "loop.lag_p50_ms": quantile(report["lags_s"], 0.5) * 1e3,
            "loop.lag_p99_ms": quantile(report["lags_s"], 0.99) * 1e3,
            "runtime.cpu_util": cpu / elapsed,
            "runtime.cpu_ms_per_op": cpu_ms,
            "runtime.gen2_collections": delta("gen2_collections"),
            "runtime.residual_ms_per_op": residual_ms,
            "runtime.residual_share": ratio(residual_ms, cpu_ms),
        }
    )
    return layer


async def isolated_latencies(runs: int = ISOLATED_RUNS) -> dict[str, float]:
    """``<kind>.isolated_ms`` from a fresh, idle, untraced cluster."""
    cluster = await ClusterProcess.spawn(spec.WORKLOAD_BY_NAME["ab_burst_100b"], False)
    try:
        medians = await cluster.call("isolated", runs=runs)
        await cluster.stop()
    finally:
        await cluster.kill()
    return {f"{kind}.isolated_ms": value for kind, value in medians.items()}


def median_of_rounds(rounds: Sequence[RoundResult]) -> dict[str, tuple[float, float]]:
    """Per end-to-end metric: the median over rounds and its spread,
    ``(max - min) / median``."""
    out: dict[str, tuple[float, float]] = {}
    for metric in spec.END_TO_END:
        values = [r.end_to_end[metric.name] for r in rounds]
        middle = statistics.median(values)
        out[metric.name] = (middle, (max(values) - min(values)) / middle if middle else 0.0)
    return out

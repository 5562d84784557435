"""The cluster process: four RitasNodes (and a gateway) on one asyncio loop.

Started by the benchmark process as ``python -m bench.cluster`` and
driven over its stdin/stdout with length-prefixed JSON messages (see
:func:`read_message`).  It is the deployment shape the tests use: n=4,
f=1, default ``GroupConfig``, loopback TCP with no injected delay, one
``ClientGateway`` on replica 0.  Client load arrives over TCP from the
benchmark process; bursts have no client, so the benchmark sends the
generated payloads here and this process submits them (the paper's
signalling machine).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import logging
import resource
import struct
import sys
import time
import zlib
from typing import Any

from bench import offline, spec, tracing
from repro.core.config import GroupConfig
from repro.crypto.keys import TrustedDealer
from repro.gateway.server import ClientGateway, GatewayServices
from repro.transport.tcp import PeerAddress, RitasNode

_LEN = struct.Struct(">I")
N = 4
BURST_PATH = ("burst",)

#: Sampling period of the public gauges in a traced round (50 Hz).
SAMPLE_S = 0.02
#: Nominal sleep of the event-loop lag probe.
LAG_PROBE_S = 0.01
#: Instances per protocol for the isolated latencies (Table 1).
ISOLATED_RUNS = 100


def pack_message(header: dict[str, Any], blob: bytes = b"") -> bytes:
    """One control message: u32 length, JSON header, then ``blob``
    (whose length the header carries as ``"blob"``)."""
    if blob:
        header = dict(header, blob=len(blob))
    body = json.dumps(header, separators=(",", ":")).encode()
    return _LEN.pack(len(body)) + body + blob


async def read_message(reader: asyncio.StreamReader) -> tuple[dict[str, Any], bytes]:
    (length,) = _LEN.unpack(await reader.readexactly(_LEN.size))
    header = json.loads(await reader.readexactly(length))
    blob = await reader.readexactly(header["blob"]) if header.get("blob") else b""
    return header, blob


class Cluster:
    def __init__(self, kind: str, local_reads: bool, traced: bool):
        self.kind = kind
        self.local_reads = local_reads
        self.log = tracing.SpanLog() if traced else None
        self.sample = tracing.UnitSample() if traced else None
        self.nodes: list[RitasNode] = []
        self.live = [True] * N
        self.services: list[GatewayServices] = []
        self.gateway: ClientGateway | None = None
        self.port = 0
        # burst bookkeeping
        self.abs: list[Any] = []
        self.sequences: list[list[tuple[int, int, int]]] = [[] for _ in range(N)]
        self.submit_at: dict[tuple[int, int], float] = {}
        self.own_latency: list[float] = []
        self._burst_target = 0
        self._burst_done: asyncio.Event | None = None
        # traced-round series
        self.applied_at: list[list[tuple[int, float]]] = [[] for _ in range(N)]
        self.samples: list[tuple[float, float, int, int]] = []
        self.lags: list[tuple[float, float]] = []
        self._tasks: list[asyncio.Task] = []

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        config = GroupConfig(N)
        dealer = TrustedDealer(N, seed=b"repro-bench")
        blank = [PeerAddress("127.0.0.1", 0)] * N
        factory = tracing.timed_factory(config, self.log) if self.log else None
        self.nodes = [
            RitasNode(
                config, pid, blank, dealer.keystore_for(pid),
                seed=spec.NODE_SEED, factory=factory,
            )
            for pid in range(N)
        ]
        for node in self.nodes:
            await node.listen()
        addresses = [PeerAddress("127.0.0.1", node.bound_port) for node in self.nodes]
        for node in self.nodes:
            node.set_peer_addresses(addresses)
            await node.connect()
        if self.kind == "kv":
            self.services = [GatewayServices.attach(node) for node in self.nodes]
            self.gateway = ClientGateway(
                self.nodes[0], self.services[0], local_reads=self.local_reads
            )
            self.port = await self.gateway.listen()
        else:
            self.abs = [node.stack.create("ab", BURST_PATH) for node in self.nodes]
            for pid, ab in enumerate(self.abs):
                ab.on_deliver = self._burst_recorder(pid)
        if self.log is not None:
            self._attach_tracing()

    def _attach_tracing(self) -> None:
        log = self.log
        assert log is not None and self.sample is not None
        log.watch_gc()
        for pid, node in enumerate(self.nodes):
            tracing.wrap_receive(node.stack, log, self.sample)
            if self.kind == "kv":
                rsm = self.services[pid].kv.rsm
                # Installed after the gateway chained itself, so on
                # replica 0 the span covers the gateway's response path.
                tracing.chain_applied(rsm, log, "gateway.respond", self.applied_at[pid])
                tracing.chain_deliver(rsm.ab, log, "apps.apply")
            else:
                tracing.chain_deliver(self.abs[pid], log, "bench.record")
        self._tasks.append(asyncio.create_task(self._sampler()))
        self._tasks.append(asyncio.create_task(self._lag_probe()))

    async def close(self) -> None:
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        if self.log is not None:
            self.log.unwatch_gc()
        if self.gateway is not None:
            await self.gateway.close()
        for pid, node in enumerate(self.nodes):
            if self.live[pid]:
                await node.close()

    async def crash(self, pid: int) -> float:
        """Fail-stop: close the replica's node for good."""
        self.live[pid] = False
        await self.nodes[pid].close()
        return time.monotonic()

    # -- bursts --------------------------------------------------------------------

    def _burst_recorder(self, pid: int):
        sequence = self.sequences[pid]

        def on_deliver(_instance, delivery) -> None:
            sequence.append((delivery.sender, delivery.rbid, zlib.crc32(delivery.payload)))
            if delivery.sender == pid:
                self.own_latency.append(
                    time.monotonic() - self.submit_at.pop(delivery.msg_id)
                )
            if len(sequence) >= self._burst_target and self._burst_done is not None:
                if all(len(s) >= self._burst_target for s in self.sequences):
                    self._burst_done.set()

        return on_deliver

    async def burst(self, count: int, size: int, blob: bytes) -> dict[str, Any]:
        """Submit *count* messages of *size* bytes, split evenly over the
        replicas' ``ab.broadcast`` under ``stack.coalesce()``; ends when
        every replica has delivered all of them."""
        share = count // N
        self._burst_target = len(self.sequences[0]) + share * N
        self._burst_done = asyncio.Event()
        self.own_latency = []
        ids: list[list[int]] = []
        cpu0 = time.process_time()
        started = time.monotonic()
        for pid, node in enumerate(self.nodes):
            ab = self.abs[pid]
            with node.stack.coalesce():
                for index in range(pid * share, (pid + 1) * share):
                    payload = blob[index * size : (index + 1) * size]
                    submitted = time.monotonic()
                    msg_id = ab.broadcast(payload)
                    self.submit_at[msg_id] = submitted
                    ids.append([msg_id[0], msg_id[1]])
        await asyncio.wait_for(self._burst_done.wait(), timeout=120.0)
        ended = time.monotonic()
        return {
            "started": started,
            "ended": ended,
            "wall_s": ended - started,
            "cpu_s": time.process_time() - cpu0,
            "ids": ids,
            "latency_s": self.own_latency,
        }

    # -- isolated protocol latencies (the paper's Table 1, on TCP) --------------------

    async def isolated(self, runs: int) -> dict[str, float]:
        """Median signal -> delivery latency at replica 0 of one instance
        of each protocol on the otherwise idle cluster, in ms.  The
        paper's method: the lowest-id process broadcasts; for consensus
        every process proposes the same value; 10-byte payloads (one bit
        for binary consensus)."""
        out: dict[str, float] = {}
        payload = bytes(10)
        for kind in tracing.KINDS:
            latencies: list[float] = []
            for run in range(runs):
                path = ("iso", kind, run)
                done = asyncio.Event()
                delivered_at: dict[int, float] = {}

                def on_deliver(instance, _event, delivered_at=delivered_at, done=done) -> None:
                    delivered_at.setdefault(instance.me, time.monotonic())
                    if len(delivered_at) == N:
                        done.set()

                kwargs = {"sender": 0} if kind in ("rb", "eb") else {}
                blocks = [node.stack.create(kind, path, **kwargs) for node in self.nodes]
                for block in blocks:
                    block.on_deliver = on_deliver
                started = time.monotonic()
                if kind in ("rb", "eb", "ab"):
                    blocks[0].broadcast(payload)
                else:
                    for block in blocks:
                        block.propose(1 if kind == "bc" else payload)
                await asyncio.wait_for(done.wait(), timeout=30.0)
                latencies.append(delivered_at[0] - started)
                for block in blocks:
                    block.destroy()
            latencies.sort()
            out[kind] = latencies[len(latencies) // 2] * 1e3
        return out

    # -- counters -------------------------------------------------------------------

    def mark(self) -> dict[str, Any]:
        """Snapshot of every public counter the per-layer metrics are
        differences of, taken at one instant."""
        live = [pid for pid in range(N) if self.live[pid]]
        stacks = [self.nodes[pid].stack for pid in live]
        nodes = [self.nodes[pid] for pid in live]
        rounds: dict[str, int] = {}
        for stack in stacks:
            for (protocol, count), times in stack.stats.consensus_rounds.items():
                if protocol == "bc":
                    rounds[str(count)] = rounds.get(str(count), 0) + times
        ab0 = self.services[0].kv.rsm.ab if self.kind == "kv" else self.abs[0]
        snapshot = {
            "t": time.monotonic(),
            "cpu_s": time.process_time(),
            "live": len(live),
            "frames_sent": sum(s.stats.frames_sent for s in stacks),
            "bytes_sent": sum(s.stats.bytes_sent for s in stacks),
            "frames_received": sum(s.stats.frames_received for s in stacks),
            "batches_received": sum(s.stats.batches_received for s in stacks),
            "frames_decoalesced": sum(s.stats.frames_decoalesced for s in stacks),
            "ooc_stored": sum(s.stats.ooc_stored for s in stacks),
            "dropped": sum(sum(s.stats.dropped.values()) for s in stacks),
            "live_instances": sum(s.live_instances for s in stacks),
            "bc_rounds": rounds,
            "link_batches": sum(n.batches_sent for n in nodes),
            "link_units_batched": sum(n.frames_batched for n in nodes),
            "frames_shed": sum(n.frames_shed for n in nodes),
            "frames_rejected": sum(n.frames_rejected for n in nodes),
            "connect_attempts": sum(n.connect_attempts for n in nodes),
            "delivered": ab0.delivered_count,
            "agreements": ab0.agreements_started,
            "agreements_empty": ab0.agreements_empty,
            "gen2_collections": gc.get_stats()[2]["collections"],
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if self.log is not None and self.sample is not None:
            snapshot["counters"] = dict(self.log.counters)
            snapshot["units_seen"] = self.sample.seen
            snapshot["units_remote"] = self.sample.remote
        return snapshot

    async def _sampler(self) -> None:
        """50 Hz: (t, process CPU, gateway in-flight ops, deepest send
        queue in frames)."""
        while True:
            await asyncio.sleep(SAMPLE_S)
            depth = 0
            for pid, node in enumerate(self.nodes):
                if not self.live[pid]:
                    continue
                for peer in range(N):
                    depth = max(depth, node.send_queue_depth(peer)[0])
            gateway = self.gateway
            self.samples.append(
                (
                    time.monotonic(),
                    time.process_time(),
                    gateway.inflight_ops if gateway else 0,
                    depth,
                )
            )

    async def _lag_probe(self) -> None:
        """How much longer than asked a 10 ms sleep takes: the wait any
        ready callback sees behind whatever the loop is running."""
        while True:
            before = time.monotonic()
            await asyncio.sleep(LAG_PROBE_S)
            after = time.monotonic()
            self.lags.append((after, after - before - LAG_PROBE_S))

    # -- end of round ---------------------------------------------------------------

    async def quiesce(self, timeout_s: float) -> bool:
        """Wait until the live replicas hold equally long logs that have
        stopped growing."""
        deadline = time.monotonic() + timeout_s
        previous: list[int] | None = None
        while time.monotonic() < deadline:
            lengths = self._log_lengths()
            if len(set(lengths)) == 1 and lengths == previous:
                return True
            previous = lengths
            await asyncio.sleep(0.05)
        return False

    def _log_lengths(self) -> list[int]:
        live = [pid for pid in range(N) if self.live[pid]]
        if self.kind == "kv":
            return [len(self.services[pid].kv.rsm.applied) for pid in live]
        return [len(self.sequences[pid]) for pid in live]

    def dump(self) -> dict[str, Any]:
        """What the audit needs: each live replica's log as
        ``[sender, rbid, crc32(payload)]`` and its state digest; for
        replica 0 of a kv cluster also the decoded commands."""
        logs: dict[str, Any] = {}
        digests: dict[str, str] = {}
        commands: list[list[Any]] = []
        for pid in range(N):
            if not self.live[pid]:
                continue
            if self.kind == "kv":
                rsm = self.services[pid].kv.rsm
                logs[str(pid)] = [
                    [d.sender, d.rbid, zlib.crc32(d.payload)] for d, _ in rsm.applied
                ]
                digests[str(pid)] = rsm.state_digest().hex()
            else:
                logs[str(pid)] = [list(entry) for entry in self.sequences[pid]]
        if self.kind == "kv":
            for _, command in self.services[0].kv.rsm.applied:
                value = command.args[1] if len(command.args) > 1 else None
                commands.append(
                    [command.op, command.args[0], value.decode("latin-1") if value else None]
                )
        return {"logs": logs, "digests": digests, "commands": commands}

    def trace_report(self, since: float, until: float, trace_out: str | None) -> dict[str, Any]:
        """Aggregates of the traced round over ``[since, until)``."""
        log, sample = self.log, self.sample
        assert log is not None and sample is not None
        report: dict[str, Any] = {
            "layers": log.self_times(since, until),
            "spans": len(log.start),
            "submit_to_deliver_s": [
                seconds for at, seconds in log.submit_to_deliver if since <= at < until
            ],
            "samples": [s for s in self.samples if since <= s[0] < until],
            "lags_s": [lag for at, lag in self.lags if since <= at < until],
            "codec": offline.time_codecs(sample.units, self.nodes[0].keystore),
        }
        if self.kind == "kv":
            base = dict(self.applied_at[0])
            lag: list[float] = []
            others = [self.applied_at[pid] for pid in range(1, N) if self.live[pid]]
            slowest: dict[int, float] = {}
            for series in others:
                for request, at in series:
                    if at > slowest.get(request, 0.0):
                        slowest[request] = at
            for request, at in base.items():
                if since <= at < until and request in slowest:
                    lag.append(slowest[request] - at)
            report["replica_lag_s"] = lag
        if trace_out:
            report["spans_written"] = log.write(trace_out)
        return report


async def serve(args: argparse.Namespace) -> None:
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=1 << 26)
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(reader), sys.stdin.buffer)
    out = sys.stdout.buffer

    def reply(header: dict[str, Any]) -> None:
        out.write(pack_message(header))
        out.flush()

    cluster = Cluster(args.kind, args.local_reads, args.trace)
    await cluster.start()
    reply({"event": "ready", "port": cluster.port})
    try:
        while True:
            try:
                header, blob = await read_message(reader)
            except asyncio.IncompleteReadError:
                break  # the benchmark process went away
            command = header["cmd"]
            if command == "burst":
                reply(await cluster.burst(header["count"], header["size"], blob))
            elif command == "mark":
                reply(cluster.mark())
            elif command == "crash":
                reply({"t": await cluster.crash(header["pid"])})
            elif command == "isolated":
                reply(await cluster.isolated(header["runs"]))
            elif command == "quiesce":
                reply({"quiet": await cluster.quiesce(header["timeout_s"])})
            elif command == "dump":
                reply(cluster.dump())
            elif command == "trace":
                reply(cluster.trace_report(header["since"], header["until"], header.get("out")))
            elif command == "stop":
                break
            else:
                raise ValueError(f"unknown command {command!r}")
    finally:
        await cluster.close()
    reply({"event": "stopped", **cluster.mark()})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.cluster")
    parser.add_argument("--kind", choices=("kv", "burst"), required=True)
    parser.add_argument("--local-reads", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    # Link-loss warnings are expected in the fail-stop workload.
    logging.basicConfig(level=logging.ERROR, stream=sys.stderr)
    asyncio.run(serve(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())

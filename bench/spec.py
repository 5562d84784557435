"""Names the benchmark is held to: workloads, metrics, units, bounds.

``BENCHMARK.json`` repeats these lists; ``bench/test_bench.py`` checks
that the two agree and that every printed name comes from here.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seed of every RitasNode in the cluster (the value the tests and
#: ``repro.perf`` use).  The workload seed only shapes the inputs.
NODE_SEED = 29

#: Rounds per run, each on a fresh cluster process; a metric's value is
#: the median of its per-round values.
ROUNDS = 3

#: kv rounds: seconds of load sent before the measured window opens.
WARMUP_S = 1.5

#: Seconds an op may stay unanswered after the last send before it
#: counts as failed.
DRAIN_S = 10.0

#: A traced round whose generator ran later than this (p99, ms) is void.
MAX_LATE_P99_MS = 20.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "kv" (client -> gateway -> AB -> apply -> ack) or "burst" (AB only)
    rate: float = 0.0  # kv: offered ops/s (open loop, Poisson)
    read_fraction: float = 0.0  # kv: share of ops that are `get`
    local_reads: bool = False  # kv: ClientGateway(local_reads=True)
    crash: int | None = None  # kv: replica closed at the first measured instant
    burst_count: int = 0  # burst: messages per burst
    burst_bytes: int = 0  # burst: payload size


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "kv_steady",
        "Headline client path at about 40% of capacity: every layer from "
        "gateway.protocol to core.wire is on it; small frames, so per-frame cost dominates.",
        "kv",
        rate=300.0,
        read_fraction=0.5,
    ),
    Workload(
        "kv_local_reads",
        "90% reads served locally by the gateway beside 10% ordered writes: gateway and "
        "event loop do most of the work, so a gain for one kind that costs the other shows.",
        "kv",
        rate=1500.0,
        read_fraction=0.9,
        local_reads=True,
    ),
    Workload(
        "kv_failstop",
        "The paper's fail-stop faultload: kv_steady's load keeps arriving while replica 3 "
        "is closed; dead-peer queues, reconnect backoff and n-f quorums do the work.",
        "kv",
        rate=300.0,
        read_fraction=0.5,
        crash=3,
    ),
    Workload(
        "ab_burst_100b",
        "The paper's Fig. 4 point at saturation: bursts of 1000 x 100 B into ab.broadcast, "
        "no gateway, no apps; frame count dominates (core.*, core.wire, transport.*).",
        "burst",
        burst_count=1000,
        burst_bytes=100,
    ),
    Workload(
        "ab_burst_8k",
        "Same path with 400 x 8 KiB bursts: byte-proportional work (channel HMAC, RB "
        "digests, copies) dominates; also the memory-retention workload.",
        "burst",
        burst_count=400,
        burst_bytes=8192,
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: float | None = None  # end-to-end only: share of the median it may worsen


#: What a user of the service sees.  Every one is defined on every
#: workload (see bench/README.md for the per-workload meaning).
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("op_p50_ms", "ms", "lower", 0.25),
    Metric("write_p50_ms", "ms", "lower", 0.25),
    Metric("goodput_ops_s", "ops/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.20),
)


def _layer(names: str, unit: str, better: str = "lower") -> list[Metric]:
    return [Metric(name, unit, better) for name in names.split()]


#: Single-layer numbers from the traced pass; ungated.
PER_LAYER: tuple[Metric, ...] = tuple(
    _layer("audit.failed_op_share", "ratio")
    + _layer("audit.safety_violations", "count")
    + _layer(
        "client.op_p90_ms client.op_p99_ms client.read_p50_ms client.warmup_p50_ms "
        "client.late_p99_ms client.post_crash_p50_ms client.crash_gap_ms",
        "ms",
    )
    + _layer("client.samples", "count", "higher")
    + _layer("gateway.ping_p50_ms gateway.respond_self_ms_per_op", "ms")
    + _layer("gateway.inflight_p95", "count")
    + _layer("gateway.retry_after_share", "ratio")
    + _layer("gateway.decode_request_us gateway.encode_response_us", "us")
    + _layer("apps.replica_lag_p50_ms apps.self_ms_per_op", "ms")
    + _layer("apps.command_codec_us", "us")
    + _layer("ab.submit_to_deliver_p50_ms ab.self_ms_per_op ab.isolated_ms", "ms")
    + _layer("ab.ops_per_agreement", "count", "higher")
    + _layer("ab.agreements_per_s", "1/s", "higher")
    + _layer("mvc.self_ms_per_op mvc.isolated_ms vc.isolated_ms", "ms")
    + _layer("mvc.bottom_share", "ratio")
    + _layer("bc.self_ms_per_op bc.isolated_ms", "ms")
    + _layer("bc.rounds_mean bc.rounds_max", "count")
    + _layer("rb.self_ms_per_op rb.isolated_ms eb.self_ms_per_op eb.isolated_ms", "ms")
    + _layer("rb.inputs_per_op eb.inputs_per_op", "count")
    + _layer("stack.receive_self_ms_per_op", "ms")
    + _layer("stack.frames_per_op stack.ooc_stored_per_op stack.live_instances_per_op", "count")
    + _layer("stack.bytes_per_op", "B")
    + _layer("stack.frames_per_batch", "count", "higher")
    + _layer("stack.dropped_total", "count")
    + _layer(
        "wire.fastpath_cold_us wire.fastpath_warm_us wire.decode_ex_us wire.encode_us "
        "wire.batch_split_us",
        "us",
    )
    + _layer("wire.est_ms_per_op framing.est_ms_per_op", "ms")
    + _layer("framing.encode_us framing.decode_us crypto.mac_vector_us", "us")
    + _layer("crypto.digest_us_per_kib", "us")
    + _layer(
        "tcp.sendq_depth_p95 tcp.frames_shed tcp.frames_rejected tcp.connect_attempts", "count"
    )
    + _layer("tcp.units_per_link_batch", "count", "higher")
    + _layer("loop.lag_p50_ms loop.lag_p99_ms", "ms")
    + _layer("runtime.cpu_util runtime.cpu_drift_ratio runtime.residual_share", "ratio")
    + _layer("runtime.cpu_ms_per_op runtime.gc_ms_per_op runtime.residual_ms_per_op", "ms")
    + _layer("runtime.gen2_collections", "count")
    + _layer("sim.frames_per_msg sim.events_per_msg sim.bc_rounds_mean", "count")
    + _layer("sim.bytes_per_msg", "B")
    + _layer("sim.wall_us_per_event", "us")
    + _layer("trace.overhead_share", "ratio")
)

UNIT = {m.name: m.unit for m in END_TO_END + PER_LAYER}

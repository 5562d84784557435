"""Stack analysis: per-protocol isolated latency (Table 1, Section 4.1).

Mirrors the paper's methodology: a signaling machine triggers one
protocol instance at a time; for broadcasts the lowest-id process is
the sender; for consensus all processes propose identical values;
payloads are 10 bytes (1 byte for binary consensus); latency is the
signal-to-delivery interval at one observer process, averaged over N
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.stack_metrics import METRIC_INSTANCE_LATENCY
from repro.net.network import LAN_2006, LanSimulation, NetworkParameters
from repro.obs.metrics import Histogram

#: Bottom-up order in which Table 1 lists the protocols.
PROTOCOL_ORDER = ("eb", "rb", "bc", "mvc", "vc", "ab")

PROTOCOL_NAMES = {
    "eb": "Echo Broadcast",
    "rb": "Reliable Broadcast",
    "bc": "Binary Consensus",
    "mvc": "Multi-valued Consensus",
    "vc": "Vector Consensus",
    "ab": "Atomic Broadcast",
}

_BROADCASTS = {"rb", "eb", "ab"}


def measure_protocol_latency(
    protocol: str,
    *,
    n: int = 4,
    ipsec: bool = True,
    runs: int = 5,
    seed: int = 0,
    params: NetworkParameters = LAN_2006,
    payload_bytes: int | None = None,
    observer: int = 0,
) -> float:
    """Average signal-to-delivery latency of one *protocol* instance, in
    seconds, at the *observer* process."""
    hist = measure_protocol_distribution(
        protocol,
        n=n,
        ipsec=ipsec,
        runs=runs,
        seed=seed,
        params=params,
        payload_bytes=payload_bytes,
        observer=observer,
    )
    return hist.sum / hist.count


def measure_protocol_distribution(
    protocol: str,
    *,
    n: int = 4,
    ipsec: bool = True,
    runs: int = 5,
    seed: int = 0,
    params: NetworkParameters = LAN_2006,
    payload_bytes: int | None = None,
    observer: int = 0,
) -> Histogram:
    """Signal-to-delivery latency distribution of *protocol* over *runs*
    isolated executions, as one merged :class:`~repro.obs.metrics.Histogram`.

    The samples come from the stack's own ``ritas_instance_latency_seconds``
    instrumentation at the observer (each run contributes the observed
    instance's create-to-deliver latency), so Table 1 quantiles and the
    obs exporters report from the same source.
    """
    if protocol not in PROTOCOL_ORDER:
        raise ValueError(f"unknown protocol {protocol!r}")
    if payload_bytes is None:
        payload_bytes = 1 if protocol == "bc" else 10
    merged = Histogram(METRIC_INSTANCE_LATENCY, (("protocol", protocol),))
    for run_index in range(runs):
        _single_run(
            protocol,
            n=n,
            ipsec=ipsec,
            seed=seed * 10_000 + run_index,
            params=params,
            payload_bytes=payload_bytes,
            observer=observer,
            collect=merged,
        )
    return merged


def _single_run(
    protocol: str,
    *,
    n: int,
    ipsec: bool,
    seed: int,
    params: NetworkParameters,
    payload_bytes: int,
    observer: int,
    collect: Histogram | None = None,
) -> float:
    sim = LanSimulation(n=n, ipsec=ipsec, seed=seed, params=params)
    if collect is not None:
        sim.enable_metrics()
    done_at: list[float | None] = [None]

    def observe(_instance, _event) -> None:
        if done_at[0] is None:
            done_at[0] = sim.now

    payload = bytes(payload_bytes)
    if protocol in _BROADCASTS:
        sender = 0
        for pid in sim.config.process_ids:
            kwargs = {"sender": sender} if protocol in ("rb", "eb") else {}
            instance = sim.stacks[pid].create(protocol, ("bench",), **kwargs)
            if pid == observer:
                instance.on_deliver = observe
        sim.stacks[sender].instance_at(("bench",)).broadcast(payload)
    else:
        for pid in sim.config.process_ids:
            instance = sim.stacks[pid].create(protocol, ("bench",))
            if pid == observer:
                instance.on_deliver = observe
        proposal = 1 if protocol == "bc" else payload
        for pid in sim.config.process_ids:
            sim.stacks[pid].instance_at(("bench",)).propose(proposal)
    reason = sim.run(until=lambda: done_at[0] is not None, max_time=120.0)
    if reason != "until" or done_at[0] is None:
        raise RuntimeError(f"{protocol} did not complete (stop reason: {reason})")
    if collect is not None:
        registry = sim.metric_registries()[observer]
        for metric in registry.metrics():
            if (
                isinstance(metric, Histogram)
                and metric.name == METRIC_INSTANCE_LATENCY
                and dict(metric.labels).get("protocol") == protocol
            ):
                collect.merge(metric)
    return done_at[0]


@dataclass(frozen=True)
class LatencyRow:
    """One row of Table 1.

    The quantile columns (defaulting to 0 for rows built without a
    distribution) describe the with-IPSec latency distribution.
    """

    protocol: str
    name: str
    with_ipsec_us: float
    without_ipsec_us: float
    p50_us: float = 0.0
    p95_us: float = 0.0
    p99_us: float = 0.0

    @property
    def ipsec_overhead(self) -> float:
        return self.with_ipsec_us / self.without_ipsec_us - 1.0


def latency_table(
    *,
    n: int = 4,
    runs: int = 5,
    seed: int = 0,
    params: NetworkParameters = LAN_2006,
) -> list[LatencyRow]:
    """Measure the full Table 1: every protocol, with and without IPSec."""
    rows = []
    for protocol in PROTOCOL_ORDER:
        with_ipsec = measure_protocol_distribution(
            protocol, n=n, ipsec=True, runs=runs, seed=seed, params=params
        )
        without_ipsec = measure_protocol_distribution(
            protocol, n=n, ipsec=False, runs=runs, seed=seed, params=params
        )
        rows.append(
            LatencyRow(
                protocol=protocol,
                name=PROTOCOL_NAMES[protocol],
                with_ipsec_us=with_ipsec.sum / with_ipsec.count * 1e6,
                without_ipsec_us=without_ipsec.sum / without_ipsec.count * 1e6,
                p50_us=with_ipsec.quantile(0.5) * 1e6,
                p95_us=with_ipsec.quantile(0.95) * 1e6,
                p99_us=with_ipsec.quantile(0.99) * 1e6,
            )
        )
    return rows

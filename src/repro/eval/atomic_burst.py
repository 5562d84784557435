"""Atomic broadcast burst benchmarks (Figures 4-7, Section 4.2).

Methodology mirrors the paper: on the signal, every (live) sender
atomically broadcasts ``k / senders`` messages of *m* bytes; the burst
latency ``L_burst`` is the interval until the observer delivers the
k-th message, throughput is ``k / L_burst``, and the relative cost of
agreement is the fraction of all (reliable + echo) broadcasts that were
executed on behalf of the agreement task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.adversary import byzantine_paper_faultload
from repro.baselines import with_paper_rb
from repro.core.config import GroupConfig
from repro.core.stack import ProtocolFactory
from repro.core.stats import StackStats
from repro.net.faults import FaultPlan
from repro.net.network import LAN_2006, LanSimulation, NetworkParameters
from repro.obs.metrics import Histogram

FAULTLOADS = ("failure-free", "fail-stop", "byzantine")

#: The message sizes (bytes) measured in Figures 4-6.
PAPER_MESSAGE_SIZES = (10, 100, 1000, 10000)

#: Burst sizes spanning the paper's x-axis, 4..1000.
PAPER_BURST_SIZES = (4, 8, 16, 32, 64, 125, 250, 500, 1000)


@dataclass(frozen=True)
class BurstResult:
    """Measurements from one atomic broadcast burst.

    The quantile fields describe per-message submit-to-ordered-delivery
    latency across all senders, taken from the stacks'
    ``ritas_ab_delivery_latency_seconds`` histograms (0 when the burst
    ran with metrics off).
    """

    faultload: str
    burst_size: int
    message_bytes: int
    latency_s: float
    throughput_msgs_s: float
    agreement_cost: float
    total_broadcasts: int
    agreement_broadcasts: int
    agreements: int
    max_bc_rounds: int
    mvc_default_decisions: int
    delivered: int
    latency_p50_s: float = 0.0
    latency_p95_s: float = 0.0
    latency_p99_s: float = 0.0


def _fault_plan(faultload: str, n: int) -> FaultPlan:
    if faultload == "failure-free":
        return FaultPlan.failure_free()
    if faultload == "fail-stop":
        return FaultPlan.fail_stop(n - 1)
    if faultload == "byzantine":
        return FaultPlan.with_byzantine(n - 1, byzantine_paper_faultload)
    raise ValueError(f"unknown faultload {faultload!r}")


def run_burst(
    burst_size: int,
    message_bytes: int,
    faultload: str = "failure-free",
    *,
    n: int = 4,
    seed: int = 0,
    ipsec: bool = True,
    params: NetworkParameters = LAN_2006,
    observer: int = 0,
    max_time: float = 900.0,
    batching: bool = False,
    metrics: bool = True,
    config_kwargs: dict | None = None,
) -> BurstResult:
    """Run one burst and return its measurements (observer is a correct
    process; the burst is split evenly across the live senders).

    Reliable broadcast is always the paper's, with ECHO relaying the
    message (:class:`repro.baselines.PaperReliableBroadcast`).
    *batching* off (the default) is the paper's stack: every message
    is its own reliable broadcast and every frame its own channel unit.
    On, each sender hands its share of the burst to the stack in one
    flush window, so atomic broadcast carries it in one batch, and
    the link buffers coalesce frames into containers.  Extra
    :class:`GroupConfig` knobs (e.g. ``bc_engine`` / ``bc_coin`` for
    engine head-to-heads) pass through *config_kwargs*."""
    plan = _fault_plan(faultload, n)
    config = GroupConfig(n, batching=batching, **(config_kwargs or {}))
    sim = LanSimulation(
        config,
        seed=seed,
        ipsec=ipsec,
        params=params,
        fault_plan=plan,
        base_factory=with_paper_rb(ProtocolFactory.default(config)),
    )
    if metrics:
        sim.enable_metrics()
    if observer in plan.faulty_ids():
        raise ValueError("the observer must be a correct process")

    # Under fail-stop only the n-1 live processes send (paper Section 4.2);
    # under the Byzantine faultload the corrupt process's broadcast task is
    # honest -- its consensus layers are what attack -- so it sends too.
    senders = [pid for pid in sim.config.process_ids if pid not in plan.crashed]
    per_sender = burst_size // len(senders)
    remainder = burst_size - per_sender * len(senders)

    delivered_at: list[float] = []

    def observe(_instance, _delivery) -> None:
        delivered_at.append(sim.now)

    for pid in sim.config.process_ids:
        if pid in plan.crashed:
            continue
        ab = sim.stacks[pid].create("ab", ("burst",))
        if pid == observer:
            ab.on_deliver = observe

    payload = bytes(message_bytes)
    for index, pid in enumerate(senders):
        count = per_sender + (1 if index < remainder else 0)
        stack = sim.stacks[pid]
        ab = stack.instance_at(("burst",))
        # One flush window per sender: with batching on, the whole burst
        # share is one AB batch (a no-op when batching is off).
        with stack.coalesce():
            for _ in range(count):
                ab.broadcast(payload)

    reason = sim.run(
        until=lambda: len(delivered_at) >= burst_size, max_time=max_time
    )
    if reason != "until":
        raise RuntimeError(
            f"burst(k={burst_size}, m={message_bytes}, {faultload}) stalled: "
            f"{len(delivered_at)}/{burst_size} delivered, reason={reason}"
        )
    latency = delivered_at[burst_size - 1]

    combined = StackStats()
    for pid in sim.correct_ids():
        combined.merge(sim.stacks[pid].stats)
    per_message = Histogram("ritas_ab_delivery_latency_seconds")
    if metrics:
        for pid in sim.correct_ids():
            for metric in sim.metric_registries()[pid].metrics():
                if (
                    isinstance(metric, Histogram)
                    and metric.name == "ritas_ab_delivery_latency_seconds"
                ):
                    per_message.merge(metric)
    observer_ab = sim.stacks[observer].instance_at(("burst",))
    return BurstResult(
        faultload=faultload,
        burst_size=burst_size,
        message_bytes=message_bytes,
        latency_s=latency,
        throughput_msgs_s=burst_size / latency,
        agreement_cost=combined.agreement_cost(),
        total_broadcasts=combined.total_broadcasts(),
        agreement_broadcasts=combined.broadcasts_for("agreement"),
        agreements=observer_ab.round,  # type: ignore[union-attr]
        max_bc_rounds=combined.max_rounds("bc"),
        mvc_default_decisions=combined.decisions.get("mvc-default", 0),
        delivered=len(delivered_at),
        latency_p50_s=per_message.quantile(0.5) if per_message.count else 0.0,
        latency_p95_s=per_message.quantile(0.95) if per_message.count else 0.0,
        latency_p99_s=per_message.quantile(0.99) if per_message.count else 0.0,
    )


def tmax_by_size(results: Sequence[BurstResult]) -> dict[int, float]:
    """Maximum observed throughput per message size (the T_max of the
    paper: where the throughput curve stabilizes)."""
    tmax: dict[int, float] = {}
    for r in results:
        tmax[r.message_bytes] = max(tmax.get(r.message_bytes, 0.0), r.throughput_msgs_s)
    return tmax


def sweep_bursts(
    faultload: str,
    *,
    burst_sizes: tuple[int, ...] = PAPER_BURST_SIZES,
    message_sizes: tuple[int, ...] = PAPER_MESSAGE_SIZES,
    n: int = 4,
    seed: int = 0,
    ipsec: bool = True,
    params: NetworkParameters = LAN_2006,
) -> list[BurstResult]:
    """The full latency/throughput sweep behind one of Figures 4-6."""
    results = []
    for message_bytes in message_sizes:
        for burst_size in burst_sizes:
            results.append(
                run_burst(
                    burst_size,
                    message_bytes,
                    faultload,
                    n=n,
                    seed=seed,
                    ipsec=ipsec,
                    params=params,
                )
            )
    return results

"""The client gateway under open-loop load: goodput, tails, write safety.

Unlike the simulation benchmarks in this directory, this drives the real
asyncio gateway on a real 4-replica localhost TCP group: a pool of
concurrent client connections (>= 1000 in the full run) submits a seeded
Poisson arrival schedule through :mod:`repro.gateway.loadgen`, and the
run is judged on three things:

1. **write safety** -- every acknowledged operation's atomic-broadcast
   id appears *exactly once* in the replicated log: zero acknowledged
   writes lost, zero duplicated;
2. **tails** -- client-observed p50/p95/p99 latency, read straight from
   the :mod:`repro.obs` histograms the load generator records into;
3. **goodput** -- acknowledged ops/sec under the open-loop schedule
   (retry-afters from admission control are reported, not hidden).

Run standalone (``python benchmarks/bench_gateway.py [--smoke]``) or
through pytest (``pytest benchmarks/bench_gateway.py``).  Numbers quoted
for a speed claim come from the wall-clock benchmark instead
(``python3 -m bench --workload kv_steady``; see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.core.config import GroupConfig
from repro.crypto.keys import TrustedDealer
from repro.gateway.loadgen import LoadProfile, run_load
from repro.gateway.server import ClientGateway, GatewayServices
from repro.obs.metrics import MetricsRegistry
from repro.transport.tcp import PeerAddress, RitasNode

#: The full run's session floor (the PR's acceptance bar).
FULL_SESSIONS = 1000


async def _run_gateway_load(profile: LoadProfile, *, timeout_s: float = 600.0) -> dict:
    """One load run against a fresh 4-replica group; returns the verdict."""
    config = GroupConfig(4)
    dealer = TrustedDealer(4, seed=b"bench-gateway")
    blank = [PeerAddress("127.0.0.1", 0) for _ in range(4)]
    nodes = [
        RitasNode(config, pid, blank, dealer.keystore_for(pid), seed=23)
        for pid in range(4)
    ]
    for node in nodes:
        await node.listen()
    addresses = [PeerAddress("127.0.0.1", node.bound_port) for node in nodes]
    for node in nodes:
        node.set_peer_addresses(addresses)
    for node in nodes:
        await node.connect()
    services = [GatewayServices.attach(node) for node in nodes]
    gateway = ClientGateway(nodes[0], services[0], max_sessions=2 * profile.sessions)
    try:
        port = await gateway.listen()
        registry = MetricsRegistry(const_labels={"component": "loadgen"})
        report = await asyncio.wait_for(
            run_load("127.0.0.1", port, profile, registry=registry),
            timeout=timeout_s,
        )
        # The write-safety audit: acked ids vs the replicated log.
        applied_ids = [d.msg_id for d, _ in services[0].kv.rsm.applied]
        applied_set = set(applied_ids)
        assert len(applied_set) == len(applied_ids), "duplicated apply in the log"
        lost = [a for a in report.acked_ids if tuple(a) not in applied_set]
        duplicated = len(report.acked_ids) - len(set(report.acked_ids))
        return {
            "report": report,
            "lost_acked_writes": len(lost),
            "duplicated_acked_writes": duplicated,
            "sessions": profile.sessions,
        }
    finally:
        await gateway.close()
        for node in nodes:
            await node.close()


def run_bench(profile: LoadProfile, *, timeout_s: float = 600.0) -> dict:
    return asyncio.run(_run_gateway_load(profile, timeout_s=timeout_s))


def smoke_profile() -> LoadProfile:
    return LoadProfile(
        sessions=50, rate=400.0, ops=200, read_fraction=0.5, seed=9
    )


def full_profile() -> LoadProfile:
    return LoadProfile(
        sessions=FULL_SESSIONS, rate=600.0, ops=1500, read_fraction=0.5, seed=9
    )


def _verdict(outcome: dict) -> int:
    report = outcome["report"]
    print(report.summary())
    print(
        f"  sessions    {outcome['sessions']:10d}\n"
        f"  acked ids   {len(report.acked_ids):10d}\n"
        f"  lost        {outcome['lost_acked_writes']:10d}\n"
        f"  duplicated  {outcome['duplicated_acked_writes']:10d}"
    )
    ok = (
        outcome["lost_acked_writes"] == 0
        and outcome["duplicated_acked_writes"] == 0
        and report.errors == 0
    )
    print("write safety: " + ("OK" if ok else "VIOLATED"))
    return 0 if ok else 1


def test_gateway_load_smoke():
    """Pytest entry: the smoke-sized run upholds write safety."""
    outcome = run_bench(smoke_profile(), timeout_s=300.0)
    report = outcome["report"]
    assert outcome["lost_acked_writes"] == 0
    assert outcome["duplicated_acked_writes"] == 0
    assert report.errors == 0
    assert report.timeouts == 0
    assert report.ok > 0
    assert report.latency_p99_s >= report.latency_p50_s > 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run (50 sessions) instead of the full 1000",
    )
    args = parser.parse_args(argv)
    profile = smoke_profile() if args.smoke else full_profile()
    print(
        f"gateway load: {profile.sessions} sessions, {profile.ops} ops "
        f"at {profile.rate:.0f}/s (seed {profile.seed})"
    )
    return _verdict(run_bench(profile))


if __name__ == "__main__":
    sys.exit(main())

"""``python -m repro.gateway`` -- serve a gateway or generate load.

Subcommands::

    python -m repro.gateway serve group.json keys/process-0.keys.json \\
        --client-port 9000 --http-port 9100 [--local-reads]

    python -m repro.gateway load --port 9000 --sessions 200 --rate 500 \\
        --ops 2000 --seed 7

``serve`` starts one replica of the group -- the replicated KV store --
plus the client gateway and the HTTP status endpoint on top of it;
every replica of a deployment runs it.  Ctrl-C shuts the sockets down
cleanly.  ``load`` runs the open-loop generator against
a gateway and prints the client's view: goodput, latency percentiles,
retry-afters and timeouts.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

from repro.gateway.loadgen import LoadProfile, run_load
from repro.gateway.server import ClientGateway, GatewayServices


async def _serve(args: argparse.Namespace) -> int:
    from repro.transport.bootstrap import load_session_config
    from repro.transport.tcp import RitasNode

    session_config = load_session_config(args.descriptor, args.key_file)
    node = RitasNode(
        session_config.config,
        session_config.process_id,
        session_config.addresses,
        session_config.keystore,
    )
    await node.start()
    node.enable_metrics()
    services = GatewayServices.attach(node)
    gateway = ClientGateway(node, services, local_reads=args.local_reads)
    try:
        client_port = await gateway.listen(host=args.host, port=args.client_port)
        http_port = await gateway.listen_http(host=args.host, port=args.http_port)
        print(
            f"gateway on replica p{session_config.process_id}: "
            f"clients {args.host}:{client_port}, status http://{args.host}:{http_port} "
            f"(reads: {'local' if args.local_reads else 'ordered'})",
            flush=True,
        )
        await asyncio.Event().wait()  # serve until cancelled (Ctrl-C)
    except asyncio.CancelledError:
        pass
    finally:
        # Sockets closed, tasks cancelled and awaited -- a Ctrl-C exit
        # leaves nothing pending behind.
        await gateway.close()
        await node.close()
    return 0


async def _load(args: argparse.Namespace) -> int:
    profile = LoadProfile(
        sessions=args.sessions,
        rate=args.rate,
        ops=args.ops,
        read_fraction=args.read_fraction,
        zipf_s=args.zipf_s,
        key_space=args.key_space,
        value_bytes=args.value_bytes,
        seed=args.seed,
    )
    report = await run_load(
        args.host, args.port, profile, drain_timeout_s=args.drain_timeout
    )
    print(report.summary(), flush=True)
    return 0 if report.timeouts == 0 and report.errors == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway",
        description="Client gateway and open-loop load generator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="run a gateway on one replica of a group")
    p_serve.add_argument("descriptor", type=Path, help="group descriptor JSON")
    p_serve.add_argument("key_file", type=Path, help="this replica's key file")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--client-port", type=int, default=9000)
    p_serve.add_argument("--http-port", type=int, default=9100)
    p_serve.add_argument(
        "--local-reads",
        action="store_true",
        help="serve GETs from local replica state (stale by up to the "
        "delivery lag) instead of ordering them",
    )
    p_serve.set_defaults(fn=_serve)

    p_load = sub.add_parser("load", help="open-loop load against a gateway")
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, default=9000)
    p_load.add_argument("--sessions", type=int, default=100)
    p_load.add_argument("--rate", type=float, default=500.0, help="mean ops/sec (Poisson)")
    p_load.add_argument("--ops", type=int, default=1000)
    p_load.add_argument("--read-fraction", type=float, default=0.5)
    p_load.add_argument("--zipf-s", type=float, default=1.1, help="key skew exponent")
    p_load.add_argument("--key-space", type=int, default=1000)
    p_load.add_argument("--value-bytes", type=int, default=32)
    p_load.add_argument("--seed", type=int, default=1)
    p_load.add_argument("--drain-timeout", type=float, default=30.0)
    p_load.set_defaults(fn=_load)

    args = parser.parse_args(argv)
    try:
        return asyncio.run(args.fn(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())

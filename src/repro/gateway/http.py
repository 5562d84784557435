"""HTTP status endpoint riding on the gateway.

A deliberately tiny HTTP/1.0-style responder (no framework, no
keep-alive) in the spirit of a monitoring web tier riding on an async
node: enough for a Prometheus scraper, a load balancer health check and
a human with ``curl``.

Routes::

    GET /metrics   Prometheus text exposition 0.0.4 of the gateway
                   node's registry: protocol metrics plus the gateway_*
                   family (gauges freshly sampled per scrape)
    GET /status    JSON gateway snapshot (sessions, in-flight ops,
                   admission state)
    GET /healthz   200 "ok" while the gateway accepts sessions

Anything else is 404; non-GET methods are 405.  One request per
connection: parse, respond, close.
"""

from __future__ import annotations

import asyncio
import json
import logging

from repro.obs.export import to_prometheus

logger = logging.getLogger(__name__)

_MAX_REQUEST_LINE = 8192
_MAX_HEADER_LINES = 64


def _response(
    status: str, body: bytes, content_type: str = "text/plain; charset=utf-8"
) -> bytes:
    head = (
        f"HTTP/1.0 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def render(gateway, target: str, method: str = "GET") -> bytes:
    """Build the full HTTP response bytes for one request."""
    if method != "GET":
        return _response("405 Method Not Allowed", b"GET only\n")
    path = target.split("?", 1)[0]
    if path == "/metrics":
        gateway.sample_gauges()
        node = gateway.node
        node.sample_metrics()
        text = to_prometheus([node.metrics] if node.metrics.enabled else [])
        return _response(
            "200 OK", text.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8"
        )
    if path == "/status":
        body = json.dumps(gateway.status(), sort_keys=True).encode("utf-8") + b"\n"
        return _response("200 OK", body, "application/json")
    if path == "/healthz":
        return _response("200 OK", b"ok\n")
    return _response("404 Not Found", b"routes: /metrics /status /healthz\n")


async def _handle(gateway, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        request_line = await reader.readline()
        if len(request_line) > _MAX_REQUEST_LINE:
            return
        parts = request_line.decode("latin-1", errors="replace").split()
        if len(parts) < 2:
            return
        method, target = parts[0], parts[1]
        # Drain (and ignore) the headers so well-behaved clients are not
        # surprised by a reset mid-request.
        for _ in range(_MAX_HEADER_LINES):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
        writer.write(render(gateway, target, method))
        await writer.drain()
    except asyncio.CancelledError:
        pass
    except (ConnectionError, OSError):
        pass
    except Exception:  # a scrape must never take the gateway down
        logger.exception("status endpoint request failed")
    finally:
        writer.close()


async def serve_status(
    gateway, host: str = "127.0.0.1", port: int = 0
) -> asyncio.base_events.Server:
    """Start the status endpoint for *gateway*; returns the server."""

    async def handler(reader, writer):
        await _handle(gateway, reader, writer)

    return await asyncio.start_server(handler, host=host, port=port)

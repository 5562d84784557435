"""``repro.gateway`` -- the high-concurrency client front door.

Two halves:

- :mod:`repro.gateway.server` -- an asyncio gateway riding on a
  :class:`~repro.transport.tcp.RitasNode`: length-prefixed client
  protocol, session management for thousands of concurrent connections,
  pipelining into atomic-broadcast batches, admission control mapped to
  ``retry-after`` responses, ordered or staleness-tolerant local reads,
  and an HTTP status/metrics endpoint.
- :mod:`repro.gateway.loadgen` -- a seeded open-loop load generator:
  Poisson arrivals, Zipf key skew, read/write mix, per-op latency into
  :mod:`repro.obs` histograms and a goodput/retry-after/timeout report.

``python -m repro.gateway {serve,load}`` drives both from the command
line; see docs/GATEWAY.md for a quickstart.
"""

from repro.gateway.loadgen import (
    ChurnEvent,
    ChurnPlan,
    LoadProfile,
    LoadReport,
    ScheduledOp,
    build_schedule,
    chaos_profile,
    run_load,
    run_load_with_churn,
)
from repro.gateway.protocol import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_RETRY,
    ClientProtocolError,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.gateway.server import ClientGateway, GatewayServices

__all__ = [
    "ClientGateway",
    "GatewayServices",
    "ChurnEvent",
    "ChurnPlan",
    "LoadProfile",
    "LoadReport",
    "ScheduledOp",
    "build_schedule",
    "chaos_profile",
    "run_load",
    "run_load_with_churn",
    "ClientProtocolError",
    "encode_request",
    "encode_response",
    "decode_request",
    "decode_response",
    "STATUS_OK",
    "STATUS_RETRY",
    "STATUS_ERROR",
]

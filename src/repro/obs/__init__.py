"""Runtime observability: per-layer latency histograms, queue gauges
and machine-readable exporters.

The paper's Section 4 is entirely measurement; this package makes the
same quantities -- and their *distributions* -- visible on a live run:

- :mod:`repro.obs.metrics` -- Counter/Gauge/Histogram primitives and
  the per-stack :class:`MetricsRegistry`;
- :mod:`repro.obs.stack_metrics` -- :class:`StackMetrics`, the stack
  subscriber that derives every ``ritas_*`` metric from its events;
- :mod:`repro.obs.export` -- JSONL snapshots and Prometheus text
  exposition;
- ``python -m repro.obs`` -- renders histogram summaries (p50/p95/p99)
  from a snapshot.

Enable on a runtime, not per stack::

    sim = LanSimulation(n=4, seed=1)
    registries = sim.enable_metrics()
    ... run ...
    sim.sample_metrics()                       # refresh queue gauges
    write_jsonl_path("run.jsonl", registries)

or, on the TCP runtime, ``node.enable_metrics(sample_interval_s=1.0)``.
"""

from repro.obs.export import (
    read_jsonl,
    snapshot_records,
    to_prometheus,
    write_jsonl,
    write_jsonl_path,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "COUNT_BUCKETS",
    "LATENCY_BUCKETS",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "read_jsonl",
    "snapshot_records",
    "to_prometheus",
    "write_jsonl",
    "write_jsonl_path",
]

"""Runtime observability: per-layer latency histograms, queue gauges
and the Prometheus exposition.

The paper's Section 4 is entirely measurement; this package makes the
same quantities -- and their *distributions* -- visible on a live run:

- :mod:`repro.obs.metrics` -- Counter/Gauge/Histogram primitives and
  the per-stack :class:`MetricsRegistry`;
- :mod:`repro.obs.stack_metrics` -- :class:`StackMetrics`, the stack
  subscriber that derives every ``ritas_*`` metric from its events;
- :mod:`repro.obs.export` -- Prometheus text exposition, the one way
  metrics leave a process (the gateway serves it on ``/metrics``).

Enable on a runtime, not per stack::

    sim = LanSimulation(n=4, seed=1)
    registries = sim.enable_metrics()
    ... run ...
    sim.sample_metrics()                       # refresh queue gauges
    print(to_prometheus(registries))

or, on the TCP runtime, ``node.enable_metrics(sample_interval_s=1.0)``.
"""

from repro.obs.export import to_prometheus
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
    "to_prometheus",
]

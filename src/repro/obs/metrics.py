"""Metric primitives: counters, gauges, histograms and the registry.

The evaluation section of the paper is entirely *measurement* --
per-protocol isolated latency (Table 1), burst latency and throughput
under three faultloads (Figures 4-6), agreement cost (Figure 7) -- and
distributions, not averages, are what distinguish these protocols in
practice.  This module gives a run optional
:class:`MetricsRegistry` instances holding three metric types:

- :class:`Counter` -- monotonically increasing count;
- :class:`Gauge` -- point-in-time level (queue depths, pending work);
- :class:`Histogram` -- distribution over fixed **log-scale buckets**
  plus *exact* p50/p95/p99 while the number of observations stays
  within a bounded sample window (past the window, quantiles fall back
  to log-bucket interpolation -- still monotone and bounded by one
  bucket's width of error).

Cheap when off, by construction: a stack records into a registry only
through the :class:`~repro.obs.stack_metrics.StackMetrics` subscriber,
so a stack nobody enabled metrics on builds no event at all.
:data:`NULL_REGISTRY` (``enabled`` is ``False``, every handle a shared
no-op) is what a node's gateway records into while metrics are off.

Registries are **per stack** (one process, one registry); the
Prometheus exporter (:mod:`repro.obs.export`) takes any number of them
and keeps them distinguishable through each registry's constant labels
(e.g. ``process="2"``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any

#: Default log-scale bucket boundaries for latency histograms, in
#: seconds: 5 buckets per decade from 1 microsecond to 1000 seconds.
#: Fixed (not adaptive) so histograms from different processes, runs and
#: runtimes merge bucket-for-bucket.
LATENCY_BUCKETS: tuple[float, ...] = tuple(
    round(10.0 ** (exponent / 5.0), 12) for exponent in range(-30, 16)
)

#: Log-scale boundaries for size/count histograms: 5 per decade, 1..1e9.
COUNT_BUCKETS: tuple[float, ...] = tuple(
    round(10.0 ** (exponent / 5.0), 6) for exponent in range(0, 46)
)

#: Exact quantiles are computed while a histogram holds at most this
#: many samples; past it, new samples update only the buckets.
DEFAULT_SAMPLE_CAP = 4096

LabelItems = tuple[tuple[str, str], ...]


def _label_items(labels: dict[str, Any]) -> LabelItems:
    """Canonical, hashable form of a label set (values stringified)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "counter",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """A level that can go up and down (queue depth, pending work)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "gauge",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram:
    """Distribution over fixed log-scale buckets with exact bounded-sample
    quantiles.

    Args:
        name: metric name.
        labels: canonical label items.
        buckets: ascending upper bounds; an implicit ``+inf`` bucket
            catches everything above the last bound.
        sample_cap: observations kept verbatim for exact quantiles; 0
            disables the sample window (bucket interpolation only).
    """

    __slots__ = (
        "name",
        "labels",
        "bounds",
        "bucket_counts",
        "count",
        "sum",
        "min",
        "max",
        "_samples",
        "_sample_cap",
        "_samples_sorted",
    )

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
        sample_cap: int = DEFAULT_SAMPLE_CAP,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be ascending and non-empty")
        self.name = name
        self.labels = labels
        self.bounds = tuple(buckets)
        self.bucket_counts = [0] * (len(buckets) + 1)  # +1 for +inf
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._sample_cap = sample_cap
        self._samples_sorted = True

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        if len(self._samples) < self._sample_cap:
            if self._samples and value < self._samples[-1]:
                self._samples_sorted = False
            self._samples.append(value)

    @property
    def exact(self) -> bool:
        """True while every observation is retained in the sample window
        (quantiles are then exact order statistics)."""
        return self.count <= len(self._samples)

    def merge(self, other: "Histogram") -> None:
        """Fold *other*'s observations into this histogram.

        Requires identical bucket bounds (the module-level constants
        guarantee this across processes, runs and runtimes).  Bucket
        counts add element-wise; retained samples concatenate up to the
        sample cap, so merged quantiles stay exact as long as every
        source was exact and the union fits the window.
        """
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        if other.count == 0:
            return
        for index, bucket_count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket_count
        self.count += other.count
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        room = self._sample_cap - len(self._samples)
        if room > 0 and other._samples:
            self._samples.extend(other._samples[:room])
            self._samples_sorted = False

    def quantile(self, q: float) -> float:
        """The *q*-quantile (0 <= q <= 1) of the observed distribution.

        Exact (nearest-rank over retained samples) while :attr:`exact`
        holds; otherwise interpolated within the log-scale buckets.
        Returns ``nan`` with no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        if self.exact:
            if not self._samples_sorted:
                self._samples.sort()
                self._samples_sorted = True
            rank = min(len(self._samples) - 1, max(0, int(q * len(self._samples))))
            return self._samples[rank]
        return self._bucket_quantile(q)

    def _bucket_quantile(self, q: float) -> float:
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index] if index < len(self.bounds) else self.max
                if upper <= lower:
                    return upper
                fraction = (target - cumulative) / bucket_count
                return lower + fraction * (upper - lower)
            cumulative += bucket_count
        return self.max

    def snapshot(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "type": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
        }
        if self.count:
            # Sparse non-cumulative buckets: [upper_bound, count] pairs,
            # +inf encoded as None.
            record["buckets"] = [
                [self.bounds[i] if i < len(self.bounds) else None, c]
                for i, c in enumerate(self.bucket_counts)
                if c
            ]
        return record


class MetricsRegistry:
    """Per-stack metric store (:data:`NULL_REGISTRY` when off).

    Args:
        const_labels: labels merged into every metric created here --
            the exporter relies on these to tell processes, runtimes and
            faultloads apart (e.g. ``process="0", runtime="sim"``).
    """

    enabled = True

    def __init__(self, const_labels: dict[str, Any] | None = None):
        self.const_labels = {k: str(v) for k, v in (const_labels or {}).items()}
        self._metrics: dict[tuple[str, LabelItems], Counter | Gauge | Histogram] = {}

    # -- metric factories (get-or-create, keyed on name + labels) -----------

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        key = (name, _label_items({**self.const_labels, **labels}))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, key[1], buckets=buckets)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(f"{name} already registered as {type(metric).__name__}")
        return metric

    def _get(self, cls, name: str, labels: dict[str, Any]):
        key = (name, _label_items({**self.const_labels, **labels}))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1])
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"{name} already registered as {type(metric).__name__}")
        return metric

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def metrics(self) -> list[Counter | Gauge | Histogram]:
        """All registered metrics, in stable (name, labels) order."""
        return [self._metrics[key] for key in sorted(self._metrics)]


class _NullMetric:
    """Shared no-op metric handle."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


class _NullRegistry:
    """Metrics disabled: every factory returns the shared no-op handle,
    so a caller may record unguarded (and guard hot paths with
    ``if metrics.enabled:``)."""

    enabled = False

    def counter(self, name: str, **labels: Any) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, **labels: Any) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, **kwargs: Any) -> _NullMetric:
        return _NULL_METRIC

    def __len__(self) -> int:
        return 0


#: Shared inert registry: ``RitasNode.metrics`` until metrics are enabled.
NULL_REGISTRY = _NullRegistry()

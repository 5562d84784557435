"""Prometheus text exposition (version 0.0.4) of metric registries,
for scraping a live process (the gateway's ``/metrics``).

Histograms follow the standard encoding: cumulative
``_bucket{le="..."}`` series plus ``_sum`` and ``_count``.
"""

from __future__ import annotations

import math
import re
from typing import Iterable

from repro.obs.metrics import MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _label_string(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{_LABEL_NAME_RE.sub("_", k)}="{_escape_label_value(str(v))}"'
        for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def to_prometheus(registries: Iterable[MetricsRegistry]) -> str:
    """Render every registry as one Prometheus text exposition.

    Metric families are grouped (one ``# TYPE`` line per name) across
    registries; per-registry constant labels keep series distinct.
    """
    families: dict[str, tuple[str, list[str]]] = {}
    for registry in registries:
        for metric in registry.metrics():
            record = metric.snapshot()
            name = _metric_name(record["name"])
            kind = record["type"]
            labels = record["labels"]
            family = families.setdefault(name, (kind, []))
            if family[0] != kind:
                raise ValueError(
                    f"metric {name!r} registered as both {family[0]} and {kind}"
                )
            lines = family[1]
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{name}{_label_string(labels)} {_format_value(record['value'])}"
                )
                continue
            # Histogram: cumulative buckets, then sum and count.
            cumulative = 0
            bucket_counts = {
                (math.inf if le is None else le): count
                for le, count in record.get("buckets", [])
            }
            for bound in list(metric.bounds) + [math.inf]:
                cumulative += bucket_counts.get(bound, 0)
                lines.append(
                    f"{name}_bucket"
                    f"{_label_string(labels, {'le': _format_value(bound)})} "
                    f"{cumulative}"
                )
            lines.append(
                f"{name}_sum{_label_string(labels)} {_format_value(record['sum'])}"
            )
            lines.append(f"{name}_count{_label_string(labels)} {record['count']}")
    out: list[str] = []
    for name in sorted(families):
        kind, lines = families[name]
        out.append(f"# TYPE {name} {kind}")
        out.extend(lines)
    return "\n".join(out) + ("\n" if out else "")

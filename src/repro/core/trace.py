"""Structured protocol tracing.

Debugging a distributed protocol from interleaved logs is miserable;
this module gives a run an optional :class:`Tracer` that records
*structured* events (who, which instance, what happened, when) into a
bounded ring buffer, with filters and a renderer.

A tracer subscribes to a stack's record point
(:class:`~repro.core.stats.StackStats`); a stack nobody subscribed to
builds no event at all.

Typical use::

    sim = LanSimulation(n=4, seed=1)
    tracer = Tracer(capacity=10_000, clock=lambda: sim.now)
    sim.stacks[0].stats.subscribe(tracer)
    ... run ...
    for event in tracer.select(kind="decide"):
        print(event.render())
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.wire import Path


def _json_safe(value: Any) -> Any:
    """Best-effort JSON projection of an event detail value (digests are
    bytes; anything exotic falls back to ``repr``)."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)

#: Event kinds recorded by the stack and protocols (one per happening;
#: see :class:`~repro.core.stats.StackStats`, which records each).
KIND_SEND = "send"
KIND_RECEIVE = "receive"
KIND_BATCH_RECEIVE = "batch-receive"
KIND_BROADCAST = "broadcast"
KIND_DELIVER = "deliver"
KIND_DECIDE = "decide"
KIND_ROUND = "round"
KIND_STEP = "step"
KIND_COIN = "coin"
KIND_DROP = "drop"
KIND_OOC = "ooc"
KIND_CREATE = "create"
KIND_DESTROY = "destroy"
KIND_QUOTA = "quota"
KIND_SHED = "shed"
KIND_BACKPRESSURE = "backpressure"
KIND_SUBMIT = "submit"
KIND_AGREEMENT = "agreement"
KIND_AGREED = "agreed"

#: Every kind, in the order above.
KINDS = tuple(value for name, value in globals().items() if name.startswith("KIND_"))


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured protocol event."""

    time: float
    process: int
    kind: str
    path: Path
    detail: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """One human-readable line."""
        path = "/".join(str(c) for c in self.path) or "-"
        detail = " ".join(f"{k}={v!r}" for k, v in sorted(self.detail.items()))
        return f"[{self.time * 1e3:10.3f}ms p{self.process}] {self.kind:<10} {path} {detail}"


class Tracer:
    """Bounded in-memory recorder of :class:`TraceEvent`.

    Args:
        capacity: ring-buffer size; the oldest events fall off.
        clock: time source (defaults to 0.0; runtimes inject theirs).

    To record only some kinds, subscribe with them:
    ``stats.subscribe(tracer, kinds)`` builds no other event.
    """

    def __init__(
        self,
        capacity: int = 100_000,
        clock: Callable[[], float] | None = None,
    ):
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.emitted = 0
        #: Incarnation of the stack this tracer is attached to; stamped
        #: into every event's detail once nonzero, so post-restart events
        #: are distinguishable from the first life's.
        self.incarnation = 0

    def rebind(
        self,
        clock: Callable[[], float] | None = None,
        incarnation: int | None = None,
    ) -> None:
        """Re-attach this tracer to a new runtime context.

        A tracer created before a process restart keeps the dead
        incarnation's clock closure; the runtime calls this from
        ``restart_process`` so post-restart events carry the right
        simulated time and incarnation number.
        """
        if clock is not None:
            self._clock = clock
        if incarnation is not None:
            self.incarnation = incarnation

    def __call__(self, process: int, kind: str, path: Path, detail: dict[str, Any]) -> None:
        """Record one event (the stack-subscriber entry point)."""
        self.emitted += 1
        if self.incarnation:
            detail = {**detail, "incarnation": self.incarnation}
        self._events.append(
            TraceEvent(
                time=self._clock(),
                process=process,
                kind=kind,
                path=tuple(path),
                detail=detail,
            )
        )

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped_events(self) -> int:
        """Recorded events that have since fallen off the ring buffer
        (everything :attr:`emitted` that is no longer retrievable)."""
        return self.emitted - len(self._events)

    def events(self) -> list[TraceEvent]:
        return list(self._events)

    def select(
        self,
        kind: str | None = None,
        process: int | None = None,
        path_prefix: Path | None = None,
    ) -> Iterator[TraceEvent]:
        """Filter recorded events.

        Iterates over a snapshot, so a consumer may emit new events (or
        clear the tracer) mid-iteration -- lazily walking the live deque
        would raise ``RuntimeError: deque mutated during iteration`` the
        moment a handler inside the loop traced anything.
        """
        for event in list(self._events):
            if kind is not None and event.kind != kind:
                continue
            if process is not None and event.process != process:
                continue
            if path_prefix is not None and event.path[: len(path_prefix)] != tuple(
                path_prefix
            ):
                continue
            yield event

    def render(self, **filters: Any) -> str:
        return "\n".join(event.render() for event in self.select(**filters))

    def to_records(self) -> list[dict[str, Any]]:
        """JSON-ready export: one meta record (emitted / retained /
        :attr:`dropped_events`, so a reader knows whether the ring
        overflowed) followed by one record per retained event."""
        records: list[dict[str, Any]] = [
            {
                "record": "meta",
                "emitted": self.emitted,
                "retained": len(self._events),
                "dropped_events": self.dropped_events,
                "capacity": self._events.maxlen,
                "incarnation": self.incarnation,
            }
        ]
        for event in list(self._events):
            records.append(
                {
                    "record": "event",
                    "time": event.time,
                    "process": event.process,
                    "kind": event.kind,
                    "path": [_json_safe(c) for c in event.path],
                    "detail": {k: _json_safe(v) for k, v in event.detail.items()},
                }
            )
        return records

    def write_jsonl(self, out) -> None:
        """Write :meth:`to_records` to file object *out*, one JSON
        document per line."""
        for record in self.to_records():
            out.write(json.dumps(record, separators=(",", ":")) + "\n")

    def clear(self) -> None:
        self._events.clear()

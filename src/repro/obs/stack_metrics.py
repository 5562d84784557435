"""The metrics subscriber: every ``ritas_*`` metric from one stack's events.

:class:`StackMetrics` subscribes to a stack's
:class:`~repro.core.stats.StackStats` and derives docs/API.md's metrics
from single events (payload sizes, decisions, coins) or by pairing two
events on one instance path: ``create`` to the first ``deliver``; a bc
step's own broadcast (at ``bc path + (round, step, me)``) to its
``step``; ``round`` to step 3, or to the ``coin`` an engine without
steps (Crain) tosses once per round, at its end; ``submit`` to the
``deliver`` naming that own message; ``agreement`` to ``agreed``.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.core import trace
from repro.core.sendq import BoundedSendQueue
from repro.core.stack import Stack
from repro.core.wire import Path
from repro.obs.metrics import COUNT_BUCKETS, MetricsRegistry

#: Instance-lifetime latency, creation to first delivery (a decision for
#: bc/mvc/vc, the first ordered message for ab), by protocol and purpose.
METRIC_INSTANCE_LATENCY = "ritas_instance_latency_seconds"


class StackMetrics:
    """Subscriber that records one stack's events into *registry*.
    *stack_of* returns the stack it listens to -- after a restart, the
    live one."""

    #: The event kinds this subscriber needs; subscribe with these only.
    KINDS = frozenset(
        {trace.KIND_CREATE, trace.KIND_DESTROY, trace.KIND_DELIVER, trace.KIND_BROADCAST}
        | {trace.KIND_ROUND, trace.KIND_STEP, trace.KIND_COIN, trace.KIND_DECIDE}
        | {trace.KIND_SUBMIT, trace.KIND_AGREEMENT, trace.KIND_AGREED}
    )

    def __init__(self, registry: MetricsRegistry, stack_of: Callable[[], Stack]):
        self.registry = registry
        self._stack_of = stack_of
        # path -> (created at, protocol, purpose), until the first deliver.
        self._created: dict[Path, tuple[float, str, str]] = {}
        # path -> {pairing key: start time}; dropped with the instance.
        self._started: dict[Path, dict[tuple, float]] = {}

    @classmethod
    def attach(cls, stack: Stack, registry: MetricsRegistry) -> "StackMetrics":
        """Subscribe a new :class:`StackMetrics` to *stack* and return it."""
        subscriber = cls(registry, lambda: stack)
        stack.stats.subscribe(subscriber, cls.KINDS)
        return subscriber

    def rebind(self, clock: Callable[[], float] | None = None, incarnation: int | None = None):
        """A restart rebuilt the stack: nothing to rebind, since the
        registry outlives the incarnation and every time is read from
        the current stack's clock."""

    def __call__(self, process: int, kind: str, path: Path, detail: dict[str, Any]) -> None:
        stack = self._stack_of()
        now = stack.clock()
        registry = self.registry
        if kind == trace.KIND_CREATE:
            block = stack.instance_at(path)
            if block is not None:
                self._created[path] = (now, detail["protocol"], block.purpose)
        elif kind == trace.KIND_DELIVER:
            created = self._created.pop(path, None)
            if created is not None:
                registry.histogram(
                    METRIC_INSTANCE_LATENCY, protocol=created[1], purpose=created[2]
                ).observe(now - created[0])
            msg = detail.get("msg")
            if msg is not None and msg[0] == process:
                self._end(path, ("submit", msg[1]), now, "ritas_ab_delivery_latency_seconds")
        elif kind == trace.KIND_DESTROY:
            self._created.pop(path, None)
            self._started.pop(path, None)
        elif kind == trace.KIND_BROADCAST:
            labels = {"protocol": detail["protocol"], "purpose": detail["purpose"]}
            registry.histogram(
                "ritas_broadcast_payload_bytes", buckets=COUNT_BUCKETS, **labels
            ).observe(detail["size"])
            owner = stack.instance_at(path[:-3]) if len(path) > 3 else None
            if owner is not None and owner.protocol == "bc" and path[-1] == process:
                self._start(owner.path, ("step",) + path[-3:-1], now)
        elif kind == trace.KIND_STEP:
            round_number, step = detail["round"], detail["step"]
            self._end(path, ("step", round_number, step), now, "ritas_bc_step_seconds", step=step)
            if step == 3:
                self._end(path, ("round", round_number), now, "ritas_bc_round_seconds")
        elif kind == trace.KIND_COIN:
            registry.counter("ritas_bc_coin_total", value=detail["value"]).inc()
            self._end(path, ("round", detail["round"]), now, "ritas_bc_round_seconds")
        elif kind == trace.KIND_DECIDE:
            block = stack.instance_at(path)
            if block is None:
                return
            if block.protocol == "bc":
                registry.histogram(
                    "ritas_bc_rounds_to_decide",
                    buckets=COUNT_BUCKETS,
                    engine=block.engine_name,  # type: ignore[attr-defined]
                ).observe(detail["round"])
            elif block.protocol == "mvc":
                outcome = "default" if detail["value"] is None else "value"
                registry.counter("ritas_mvc_decisions_total", outcome=outcome).inc()
            elif block.protocol == "vc":
                registry.counter("ritas_vc_decisions_total", round=detail["round"] - 1).inc()
        elif kind == trace.KIND_AGREED:
            key, outcome = ("agreement", detail["round"]), detail["outcome"]
            self._end(path, key, now, "ritas_ab_agreement_seconds", outcome=outcome)
        elif kind == trace.KIND_SUBMIT:
            self._start(path, ("submit", detail["rbid"]), now)
        else:  # round or agreement: a start
            self._start(path, (kind, detail["round"]), now)

    def _start(self, path: Path, key: tuple, now: float) -> None:
        self._started.setdefault(path, {})[key] = now

    def _end(self, path: Path, key: tuple, now: float, name: str, **labels: Any) -> None:
        started = self._started.get(path)
        if started is not None and key in started:
            self.registry.histogram(name, **labels).observe(now - started.pop(key))

    def sample(self, send_queues: Mapping[int, BoundedSendQueue | None]) -> None:
        """Refresh the depth gauges: the runtime's send queue toward each
        peer in *send_queues* (None: nothing queued), the OOC table, live
        instances and each root AB instance's ``pending_local``."""
        stack = self._stack_of()
        registry = self.registry
        for peer, queue in send_queues.items():
            registry.gauge("ritas_send_queue_frames", peer=peer).set(
                len(queue) if queue is not None else 0
            )
            registry.gauge("ritas_send_queue_bytes", peer=peer).set(
                queue.bytes if queue is not None else 0
            )
        ooc = stack.ooc.snapshot()
        registry.gauge("ritas_ooc_pending").set(ooc["pending"])
        registry.gauge("ritas_ooc_bytes").set(ooc["bytes"])
        registry.gauge("ritas_instances_live").set(stack.live_instances)
        for path, block in stack.instances().items():
            if block.protocol == "ab" and block.parent is None:
                registry.gauge(
                    "ritas_ab_pending_local", path="/".join(str(c) for c in path)
                ).set(block.pending_local)  # type: ignore[attr-defined]

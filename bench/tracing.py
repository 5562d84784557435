"""The benchmark's timing shims: spans recorded around calls into each layer.

Everything here attaches through public seams of the product --
``ProtocolFactory.override``, ``RitasNode(factory=...)``, the bound
``stack.receive`` of one stack instance, ``on_deliver`` /
``rsm.on_applied`` hooks and ``gc.callbacks`` -- so the traced cluster
runs unmodified product code with subclasses that only time it.

A span is (name, start, end, parent span, request).  The request is
the atomic-broadcast ``MsgId`` the work belongs to, or none for work
shared by a batch (agreement rounds).  Spans stay in memory and are
written out only when the run ends.  A layer's self time is its spans'
duration minus the part their child spans cover.
"""

from __future__ import annotations

import gc
import json
import time
from array import array
from typing import Any, Callable

from repro.core.stack import ControlBlock, ProtocolFactory, Stack

#: Protocol kinds given a timed subclass.
KINDS = ("rb", "eb", "bc", "mvc", "vc", "ab")

#: Methods of a control block that do a layer's work.  ``child_event``
#: is where a parent reacts to a child's delivery, so without it the
#: parent's work would be charged to the child's ``input``.
_TIMED_METHODS = ("input", "child_event", "broadcast", "propose")

_NO_REQUEST = -1


def pack_request(msg_id: tuple[int, int] | None) -> int:
    """``(sender, rbid)`` as one integer (``-1`` for none)."""
    if msg_id is None:
        return _NO_REQUEST
    return (msg_id[0] << 40) | msg_id[1]


def _request_of(path: tuple) -> int:
    """The AB message a control block at *path* works for: the
    ``("msg", sender, rbid)`` component atomic broadcast puts on the
    reliable-broadcast instance carrying a payload."""
    for index in range(len(path) - 2):
        if path[index] == "msg":
            sender, rbid = path[index + 1], path[index + 2]
            if isinstance(sender, int) and isinstance(rbid, int):
                return (sender << 40) | rbid
    return _NO_REQUEST


class SpanLog:
    """Append-only span store for one process (single-threaded)."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("q")
        self._open: list[int] = []
        #: Free-form counters the shims bump (decisions, bottoms, ...).
        self.counters: dict[str, int] = {}
        #: AB submit instants by packed request, for submit -> deliver.
        self.submitted: dict[int, float] = {}
        self.submit_to_deliver: list[tuple[float, float]] = []  # (at, seconds)
        self._gc_open: int | None = None
        self._gc_callback: Callable[[str, dict], None] | None = None

    def name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int, request: int = _NO_REQUEST) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.request.append(request)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(self.clock())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = self.clock()
        self._open.pop()

    def count(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    # -- garbage collector ---------------------------------------------------

    def watch_gc(self) -> None:
        """Record every collection as a ``gc`` span under whatever was
        running, so a layer is not charged for a collection it happened
        to trigger."""
        nid = self.name("gc.collect")

        def on_gc(phase: str, info: dict[str, Any]) -> None:
            if phase == "start":
                self._gc_open = self.begin(nid)
            elif self._gc_open is not None:
                self.finish(self._gc_open)
                self._gc_open = None

        self._gc_callback = on_gc
        gc.callbacks.append(on_gc)

    def unwatch_gc(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- aggregation -----------------------------------------------------------

    def self_times(self, since: float, until: float) -> dict[str, dict[str, float]]:
        """Per layer (the span name up to its first dot): summed self
        time in seconds and span count, over closed spans that started
        inside ``[since, until)``."""
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        own = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for index in range(len(start)):
            begun = start[index]
            ended = end[index]
            if ended == 0.0 or not since <= begun < until:
                continue
            duration = ended - begun
            nid = name_id[index]
            own[nid] += duration
            calls[nid] += 1
            up = parent[index]
            if up >= 0 and since <= start[up] < until:
                own[name_id[up]] -= duration
        layers: dict[str, dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            layer, _, method = name.partition(".")
            entry = layers.setdefault(layer, {"self_s": 0.0, "spans": 0, "inputs": 0})
            entry["self_s"] += own[nid]
            entry["spans"] += calls[nid]
            if method == "input":
                entry["inputs"] += calls[nid]
        return layers

    def write(self, path: str) -> int:
        """One JSON object per span; returns the number written."""
        with open(path, "w", encoding="utf-8") as out:
            for index in range(len(self.start)):
                request = self.request[index]
                record = {
                    "span": index,
                    "name": self.names[self.name_id[index]],
                    "start": self.start[index],
                    "end": self.end[index],
                    "parent": self.parent[index],
                    "request": None
                    if request < 0
                    else [request >> 40, request & ((1 << 40) - 1)],
                }
                out.write(json.dumps(record) + "\n")
        return len(self.start)


def _timed_class(base: type[ControlBlock], log: SpanLog) -> type[ControlBlock]:
    """Subclass of the honest *base* whose work methods record spans."""
    kind = base.protocol
    namespace: dict[str, Any] = {}
    create_id = log.name(f"{kind}.create")

    def __init__(self, stack, path, *args, **kwargs):
        self._bench_request = _request_of(path)
        index = log.begin(create_id, self._bench_request)
        try:
            base.__init__(self, stack, path, *args, **kwargs)
        finally:
            log.finish(index)

    namespace["__init__"] = __init__

    def wrap(method_name: str) -> None:
        inner = getattr(base, method_name)
        nid = log.name(f"{kind}.{method_name}")

        def timed(self, *args, **kwargs):
            index = log.begin(nid, self._bench_request)
            try:
                return inner(self, *args, **kwargs)
            finally:
                log.finish(index)

        timed.__name__ = method_name
        namespace[method_name] = timed

    for method_name in _TIMED_METHODS:
        if (kind, method_name) != ("ab", "broadcast") and callable(
            getattr(base, method_name, None)
        ):
            wrap(method_name)

    if kind == "ab":
        # Its broadcast returns the MsgId the span belongs to.
        inner_broadcast = base.broadcast  # type: ignore[attr-defined]
        broadcast_id = log.name("ab.broadcast")

        def broadcast(self, payload):
            index = log.begin(broadcast_id)
            try:
                msg_id = inner_broadcast(self, payload)
            finally:
                log.finish(index)
            request = pack_request(msg_id)
            log.request[index] = request
            log.submitted[request] = log.start[index]
            return msg_id

        namespace["broadcast"] = broadcast

    if kind in ("bc", "mvc"):
        inner_deliver = base.deliver

        def deliver(self, event):
            log.count(f"{kind}.decisions")
            if event is None:
                log.count(f"{kind}.bottoms")
            inner_deliver(self, event)

        namespace["deliver"] = deliver

    return type(f"Timed{base.__name__}", (base,), namespace)


def timed_factory(config, log: SpanLog) -> ProtocolFactory:
    """The default factory with every kind in :data:`KINDS` timed."""
    factory = ProtocolFactory.default(config)
    for kind in KINDS:
        factory = factory.override(kind, _timed_class(factory.resolve(kind), log))
    return factory


class UnitSample:
    """Up to *limit* channel units seen at ``stack.receive`` (every
    *stride*-th one), kept for the offline codec timings."""

    def __init__(self, limit: int = 4000, stride: int = 7):
        self.limit = limit
        self.stride = stride
        self.units: list[bytes] = []
        self.seen = 0
        self.remote = 0

    def offer(self, src_is_remote: bool, data: bytes) -> None:
        self.seen += 1
        if src_is_remote:
            self.remote += 1
        if self.seen % self.stride == 0 and len(self.units) < self.limit:
            self.units.append(bytes(data))


def wrap_receive(stack: Stack, log: SpanLog, sample: UnitSample) -> None:
    """Time the bound ``stack.receive`` of this one stack instance."""
    inner = stack.receive
    nid = log.name("stack.receive")
    me = stack.process_id

    def receive(src: int, data: bytes) -> None:
        sample.offer(src != me, data)
        index = log.begin(nid)
        try:
            inner(src, data)
        finally:
            log.finish(index)

    stack.receive = receive  # type: ignore[method-assign]


def chain_deliver(block: ControlBlock, log: SpanLog, name: str) -> None:
    """Time the application's ``on_deliver`` of an atomic broadcast and
    record submit -> ordered delivery for messages this replica sent."""
    inner = block.on_deliver
    nid = log.name(name)
    me = block.me

    def on_deliver(instance, delivery) -> None:
        request = pack_request(delivery.msg_id)
        index = log.begin(nid, request)
        try:
            if inner is not None:
                inner(instance, delivery)
        finally:
            log.finish(index)
        if delivery.sender == me:
            submitted = log.submitted.pop(request, None)
            if submitted is not None:
                at = log.start[index]
                log.submit_to_deliver.append((at, at - submitted))

    block.on_deliver = on_deliver


def chain_applied(rsm, log: SpanLog, name: str, applied_at: list | None) -> None:
    """Time whatever is hooked on ``rsm.on_applied`` (the gateway's
    response path on replica 0) and stamp each apply instant."""
    inner = rsm.on_applied
    nid = log.name(name)

    def on_applied(delivery, command, result) -> None:
        if applied_at is not None:
            applied_at.append((pack_request(delivery.msg_id), log.clock()))
        if inner is None:
            return
        index = log.begin(nid, pack_request(delivery.msg_id))
        try:
            inner(delivery, command, result)
        finally:
            log.finish(index)

    rsm.on_applied = on_applied

"""The RITAS stack: control blocks, chaining, routing and demultiplexing.

This module is the Python equivalent of the paper's Section 3 machinery:

- :class:`ControlBlock` -- "holds all the necessary information for an
  instance of a protocol"; instances form a tree via *control block
  chaining* (Section 3.3), with the application-created protocol at the
  root and children created recursively for the primitives it uses.
- :class:`Stack` -- the per-process runtime context (the C API's
  ``ritas_t``): it owns the instance registry, encodes/decodes frames,
  demultiplexes incoming messages by instance path, parks out-of-context
  messages, and exposes the send primitives.

The stack is **sans-IO**: it never touches a socket or an event loop.
A runtime (the discrete-event simulator in :mod:`repro.net` or the
asyncio transport in :mod:`repro.transport`) feeds frames in through
:meth:`Stack.receive` and carries frames out through the ``outbox``
callable supplied at construction.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.core.config import GroupConfig
from repro.core.errors import (
    ConfigurationError,
    InstanceDestroyedError,
    ProtocolViolationError,
    WireFormatError,
)
from repro.core.ledger import MisbehaviorLedger
from repro.core.mbuf import Mbuf
from repro.core.ooc import EVICT_QUOTA, OocTable
from repro.core.stats import PURPOSE_APP, StackStats
from repro.core.trace import (
    KIND_CREATE,
    KIND_DELIVER,
    KIND_DESTROY,
    KIND_DROP,
    KIND_OOC,
    KIND_QUARANTINE,
    KIND_QUOTA,
    KIND_RECEIVE,
    KIND_SEND,
    NULL_TRACER,
)
from repro.core.wire import (
    MAX_BATCH_DEPTH,
    SEND_BATCH_FRAMES,
    Path,
    decode_batch_views,
    encode_batch,
    encode_frame,
    encode_frame_from_prefix,
    encode_frame_from_prefix_raw,
    encode_frame_prefix,
    frame_fastpath,
    frame_path,
    is_batch,
)
from repro.crypto.coin import CoinSource, LocalCoin
from repro.crypto.keys import KeyStore, TrustedDealer
from repro.obs.metrics import NULL_REGISTRY

#: Histogram of instance-lifetime latency: creation to first delivery
#: (create->deliver for rb/eb, create->decide for bc/mvc/vc, create->
#: first ordered delivery for ab), labelled by protocol and purpose.
METRIC_INSTANCE_LATENCY = "ritas_instance_latency_seconds"

Outbox = Callable[[int, bytes], None]
Clock = Callable[[], float]
DeliverFn = Callable[["ControlBlock", Any], None]

#: Fixed per-frame channel overhead avoided when a frame rides inside a
#: batch instead of standing alone: the TCP channel's u32 length prefix,
#: u64+u32 sequence/source header and 32-byte HMAC-SHA256 trailer.  Used
#: only for the ``header_bytes_saved`` statistic; the simulator charges
#: its own (larger) per-frame costs from its calibrated parameters.
CHANNEL_HEADER_BYTES = 4 + 12 + 32

#: Returned by :meth:`ControlBlock.accept_orphan` instead of ``False``
#: when the frame's subtree is *retired* -- an already-delivered message
#: id, a garbage-collected round.  The router drops such frames (counted
#: under the ``"stale-frame"`` drop reason) instead of parking them:
#: nothing will ever drain them, so parking would leak out-of-context
#: slots for the table's capacity eviction to clean up hours later.
ORPHAN_STALE = "stale"


class ControlBlock:
    """Base class for one protocol instance.

    Subclasses implement :meth:`input` (a frame addressed to this
    instance arrived) and :meth:`child_event` (a child instance delivered
    a result).  Deliveries travel *up* the tree: a child calls
    :meth:`deliver`, which invokes the parent's ``child_event`` -- or, at
    the root, the application callback assigned to :attr:`on_deliver`.
    """

    #: Short protocol tag used in statistics and logs ("rb", "bc", ...).
    protocol: str = "?"

    def __init__(
        self,
        stack: "Stack",
        path: Path,
        parent: "ControlBlock | None" = None,
        purpose: str | None = None,
    ):
        self.stack = stack
        self.path = path
        self.parent = parent
        if purpose is not None:
            self.purpose = purpose
        elif parent is not None:
            self.purpose = parent.purpose
        else:
            self.purpose = PURPOSE_APP
        self.children: dict[Path, ControlBlock] = {}
        self.on_deliver: DeliverFn | None = None
        self._destroyed = False
        #: Stack-clock time this instance was created; the metrics layer
        #: turns it into the instance-lifetime latency histogram.
        self.created_at = stack.clock()
        self._latency_observed = False
        if parent is not None:
            parent.children[path] = self
        stack._register(self)
        if stack.tracer.enabled:
            stack.tracer.emit(stack.process_id, KIND_CREATE, path, protocol=self.protocol)

    # -- convenience accessors -------------------------------------------------

    @property
    def config(self) -> GroupConfig:
        return self.stack.config

    @property
    def me(self) -> int:
        return self.stack.process_id

    @property
    def destroyed(self) -> bool:
        return self._destroyed

    # -- tree management ---------------------------------------------------------

    def make_child(
        self, kind: str, suffix: tuple, *, purpose: str | None = None, **kwargs: Any
    ) -> "ControlBlock":
        """Create a child instance of protocol *kind* under this block.

        The child's path is this block's path extended with *suffix*;
        its class is resolved through the stack's protocol factory so
        that fault injection can substitute adversarial variants.
        """
        if self._destroyed:
            raise InstanceDestroyedError(f"cannot create child under destroyed {self.path}")
        cls = self.stack.factory.resolve(kind)
        self.stack._begin_construction()
        try:
            child = cls(
                self.stack,
                self.path + tuple(suffix),
                parent=self,
                purpose=purpose,
                **kwargs,
            )
        finally:
            self.stack._end_construction()
        return child

    def destroy(self) -> None:
        """Destroy this instance and, recursively, all its children.

        Mirrors Section 3.3: "a tree (or subtree) of control blocks is
        automatically destroyed when its root node is eliminated."
        Pending OOC messages for the subtree are purged (Section 3.4).
        """
        if self._destroyed:
            return
        self._destroyed = True
        for child in list(self.children.values()):
            child.destroy()
        self.children.clear()
        if self.parent is not None:
            self.parent.children.pop(self.path, None)
        self.stack._unregister(self)
        if self.stack.tracer.enabled:
            self.stack.tracer.emit(
                self.stack.process_id, KIND_DESTROY, self.path, protocol=self.protocol
            )

    # -- data plane ---------------------------------------------------------------

    def send(self, dest: int, mtype: int, payload: Any) -> None:
        """Send one frame of this instance to process *dest*."""
        self.stack.send_frame(dest, self.path, mtype, payload)

    def send_all(self, mtype: int, payload: Any) -> None:
        """Send one frame of this instance to every process, self included."""
        self.stack.broadcast_frame(self.path, mtype, payload)

    def send_all_raw(self, mtype: int, raw) -> None:
        """Broadcast a frame whose payload is already canonically encoded.

        *raw* is spliced into the frame verbatim
        (:func:`repro.core.wire.encode_frame_from_prefix_raw`), so the
        bytes on the wire are identical to ``send_all(mtype,
        decode_value(raw))`` -- this is how reliable broadcast relays
        ECHO/READY payloads without a decode/re-encode round trip.  Only
        pass validated regions (``Mbuf.raw_payload`` from the receive
        path, or the output of :func:`~repro.core.wire.encode_value`).
        """
        self.stack.broadcast_frame_raw(self.path, mtype, raw)

    def input(self, mbuf: Mbuf) -> None:
        """Handle a frame addressed to this instance."""
        raise NotImplementedError

    def inspect(self) -> dict[str, Any]:
        """Read-only snapshot of this instance's externally checkable state.

        The protocol-invariant checker (:mod:`repro.check`) compares
        these snapshots *across processes*: same-path instances on
        different correct processes must never disagree on what they
        delivered or decided.  Subclasses extend the dict with their
        protocol's observable state; values must be cheap to produce
        (no copies of large structures) and wire-encodable where they
        are compared across processes.
        """
        return {"protocol": self.protocol, "destroyed": self._destroyed}

    def accept_orphan(self, mbuf: Mbuf) -> "bool | object":
        """Offer a frame addressed *below* this instance with no handler.

        A subclass that creates children dynamically (e.g. atomic
        broadcast creating a reliable-broadcast receiver for a message id
        it has never seen) inspects ``mbuf.path`` and instantiates the
        missing child, returning ``True``.  Returning ``False`` parks the
        frame in the OOC table; returning :data:`ORPHAN_STALE` drops it
        (the subtree is retired -- a collected round, a delivered
        message -- so no future registration can ever drain it, and
        parking would pin an OOC slot until capacity eviction).
        """
        return False

    def child_event(self, child: "ControlBlock", event: Any) -> None:
        """Handle a delivery from a child instance."""

    def deliver(self, event: Any) -> None:
        """Deliver *event* to the parent instance or application callback."""
        if self._destroyed:
            return
        if not self._latency_observed:
            self._latency_observed = True
            metrics = self.stack.metrics
            if metrics.enabled:
                metrics.histogram(
                    METRIC_INSTANCE_LATENCY,
                    protocol=self.protocol,
                    purpose=self.purpose,
                ).observe(self.stack.clock() - self.created_at)
        if self.stack.tracer.enabled:
            self.stack.tracer.emit(
                self.stack.process_id, KIND_DELIVER, self.path, protocol=self.protocol
            )
        observer = self.stack.observer
        if observer is not None:
            observer(self)
        if self.on_deliver is not None:
            self.on_deliver(self, event)
        elif self.parent is not None:
            self.parent.child_event(self, event)


class ProtocolFactory:
    """Resolves protocol kinds ("rb", "bc", ...) to control-block classes.

    Fault injection replaces entries to make one process run adversarial
    variants of a layer while the rest of its stack stays honest -- this
    is how the paper's Byzantine faultload (Section 4.2) is expressed.
    """

    def __init__(self, registry: dict[str, type[ControlBlock]] | None = None):
        self._registry: dict[str, type[ControlBlock]] = dict(registry or {})

    @classmethod
    def default(cls, config: GroupConfig | None = None) -> "ProtocolFactory":
        """Factory with the honest implementation of every layer.

        With a *config*, the "bc" entry honours ``config.bc_engine``
        (resolved through the :mod:`repro.core.bc_engine` registry);
        without one, the paper's Bracha engine is used.  Resolution
        happens *here*, before any adversarial override, so faultloads
        that derive from the registered "bc" class corrupt whichever
        engine the group is configured to run.
        """
        # Imported here to avoid a cycle: protocol modules import this one.
        from repro.core.atomic_broadcast import AtomicBroadcast
        from repro.core.binary_consensus import BinaryConsensus
        from repro.core.echo_broadcast import EchoBroadcast
        from repro.core.multivalued_consensus import MultiValuedConsensus
        from repro.core.reliable_broadcast import ReliableBroadcast
        from repro.core.vector_consensus import VectorConsensus
        from repro.recovery.protocol import RecoveryProtocol

        bc: type[ControlBlock] = BinaryConsensus
        if config is not None and config.bc_engine != "bracha":
            from repro.core.bc_engine import resolve_bc_engine

            bc = resolve_bc_engine(config.bc_engine)

        return cls(
            {
                "rb": ReliableBroadcast,
                "eb": EchoBroadcast,
                "bc": bc,
                "mvc": MultiValuedConsensus,
                "vc": VectorConsensus,
                "ab": AtomicBroadcast,
                "ckpt": RecoveryProtocol,
            }
        )

    def resolve(self, kind: str) -> type[ControlBlock]:
        try:
            return self._registry[kind]
        except KeyError:
            raise ConfigurationError(f"no protocol registered for kind {kind!r}") from None

    def override(self, kind: str, cls: type[ControlBlock]) -> "ProtocolFactory":
        """Return a copy of this factory with *kind* replaced by *cls*."""
        registry = dict(self._registry)
        registry[kind] = cls
        return ProtocolFactory(registry)

    def kinds(self) -> list[str]:
        return sorted(self._registry)


class Stack:
    """Per-process protocol context (the paper's ``ritas_t``).

    Args:
        config: the process group description.
        process_id: this process's id in ``[0, n)``.
        outbox: callable invoked with ``(dest_pid, frame_bytes)`` for
            every outgoing frame; supplied by the runtime.
        keystore: this process's pairwise secret keys.  When omitted, a
            deterministic dealer keyed on the group size is used -- fine
            for simulations, not for deployment.
        coin: random-bit source for binary consensus.  Default: a local
            coin over a PRNG stream derived from the stack RNG (so
            seeded stacks replay byte-identically); required explicitly
            when ``config.bc_coin == "shared"`` (the runtime deals it).
        clock: monotonic time source used only for statistics.
        factory: protocol class registry (default: honest stack).
    """

    def __init__(
        self,
        config: GroupConfig,
        process_id: int,
        outbox: Outbox,
        *,
        keystore: KeyStore | None = None,
        coin: CoinSource | None = None,
        clock: Clock | None = None,
        factory: ProtocolFactory | None = None,
        rng: random.Random | None = None,
    ):
        if not 0 <= process_id < config.num_processes:
            raise ConfigurationError(
                f"process id {process_id} out of range for n={config.num_processes}"
            )
        self.config = config
        self.process_id = process_id
        self._outbox = outbox
        if keystore is None:
            # Scoped by group_tag: two same-n groups hosted in one
            # process must not share pairwise MAC keys.
            dealer = TrustedDealer(
                config.num_processes,
                seed=config.scoped_seed_bytes(b"repro-default-dealer"),
            )
            keystore = dealer.keystore_for(process_id)
        self.keystore = keystore
        self.rng = rng if rng is not None else random.Random()
        if coin is None:
            if config.bc_coin == "shared":
                # The shared coin needs a group-wide dealer secret the
                # stack cannot invent; the runtime must deal it.
                raise ConfigurationError(
                    "config.bc_coin='shared' but no coin was supplied: "
                    "the runtime must deal SharedCoin instances"
                )
            # Dedicated stream *derived* from the stack RNG -- not
            # self.rng itself, whose draw order runtimes may interleave
            # with timing-dependent draws (reconnect jitter), and not
            # the bare-LocalCoin() SystemRandom fallback, which breaks
            # byte-identical same-seed replay.
            coin = LocalCoin(random.Random(self.rng.getrandbits(64)))
        self.coin: CoinSource = coin
        self.clock: Clock = clock if clock is not None else (lambda: 0.0)
        self.factory = factory if factory is not None else ProtocolFactory.default(config)
        bc_cls = self.factory._registry.get("bc")
        if getattr(bc_cls, "requires_common_coin", False) and not getattr(
            self.coin, "common", False
        ):
            raise ConfigurationError(
                f"bc engine {getattr(bc_cls, 'engine_name', '?')!r} requires a "
                "common coin, but the configured coin source is not common"
            )
        self.stats = StackStats()
        #: Structured event recorder; NULL_TRACER by default (no cost).
        self.tracer = NULL_TRACER
        #: Metric registry (:mod:`repro.obs`); NULL_REGISTRY by default,
        #: so instrumentation guarded by ``metrics.enabled`` is free.
        self.metrics = NULL_REGISTRY
        #: Optional callable invoked with the delivering control block on
        #: every :meth:`ControlBlock.deliver`; the invariant checker uses
        #: it to dirty-track which instance paths need re-checking.
        self.observer: Callable[[ControlBlock], None] | None = None
        #: When True, atomic-broadcast instances created on this stack
        #: keep a full per-delivery order log for cross-process
        #: prefix-agreement checking (memory grows with history -- meant
        #: for bounded checker/explorer runs, not production sessions).
        self.record_delivery_order = False
        #: With ``record_delivery_order`` on, a nonzero cap bounds each
        #: order log to its most recent entries (soak runs keep windowed
        #: order agreement checkable at flat memory); 0 = unbounded.
        self.order_log_cap = 0
        #: Per-peer misbehavior scores and quarantine state.  The clock
        #: indirects through the attribute so runtimes that swap
        #: ``stack.clock`` after construction keep probation timing right.
        self.ledger = MisbehaviorLedger(config, clock=lambda: self.clock())
        self._registry: dict[Path, ControlBlock] = {}
        # Demux fast path: raw encoded-path bytes -> control block, so
        # inbound frames for live instances dispatch without decoding
        # the path (see _receive_unit); plus the mirror cache on the
        # send side, instance path -> encoded frame prefix.  Both are
        # maintained by _register/_unregister, so they are bounded by
        # the number of live instances.
        self._demux: dict[bytes, ControlBlock] = {}
        self._path_prefix: dict[Path, bytes] = {}
        self._ooc = OocTable(config.ooc_capacity, peer_quota=config.ooc_peer_quota)
        self._ooc.on_evict = self._on_ooc_evict
        # Out-of-context frames drained by a registration are replayed
        # only once the instance tree being built is fully constructed
        # (a subclass __init__ may still be initializing its state).
        self._replay: list[Mbuf] = []
        self._construction_depth = 0
        self._replaying = False
        # Frame coalescing: while a flush window is open, outgoing
        # frames are parked per destination and flushed as batches.
        self._coalesce_depth = 0
        self._pending_frames: dict[int, list[bytes]] = {}

    # -- instance management -------------------------------------------------------

    def create(self, kind: str, path: Path, **kwargs: Any) -> ControlBlock:
        """Create a root (application-level) protocol instance."""
        if path in self._registry:
            raise ConfigurationError(f"instance already exists at path {path}")
        cls = self.factory.resolve(kind)
        self._begin_construction()
        try:
            instance = cls(self, tuple(path), parent=None, **kwargs)
        finally:
            self._end_construction()
        return instance

    def instance_at(self, path: Path) -> ControlBlock | None:
        return self._registry.get(tuple(path))

    def _register(self, block: ControlBlock) -> None:
        if block.path in self._registry:
            raise ConfigurationError(f"duplicate instance path {block.path}")
        self._registry[block.path] = block
        prefix = encode_frame_prefix(block.path)
        self._path_prefix[block.path] = prefix
        # The frame prefix past the 6 fixed header bytes is exactly the
        # canonical path encoding -- the demux key inbound frames carry.
        self._demux[prefix[6:]] = block
        parked = self._ooc.drain_prefix(block.path)
        if parked:
            self.stats.ooc_drained += len(parked)
            self._replay.extend(parked)
            self._flush_replay()

    def _begin_construction(self) -> None:
        self._construction_depth += 1

    def _end_construction(self) -> None:
        self._construction_depth -= 1
        if self._construction_depth == 0:
            self._flush_replay()

    def _flush_replay(self) -> None:
        if self._replaying or self._construction_depth > 0:
            return
        self._replaying = True
        try:
            while self._replay:
                self.route(self._replay.pop(0))
        finally:
            self._replaying = False

    def _unregister(self, block: ControlBlock) -> None:
        self._registry.pop(block.path, None)
        prefix = self._path_prefix.pop(block.path, None)
        if prefix is not None:
            self._demux.pop(prefix[6:], None)
        purged = self._ooc.purge_prefix(block.path)
        self.stats.ooc_purged += purged

    @property
    def live_instances(self) -> int:
        return len(self._registry)

    def instances(self) -> dict[Path, ControlBlock]:
        """Snapshot of the live instance registry (path -> control block).

        Diagnostic / checker API: the returned dict is a copy; mutating
        it does not affect the stack.
        """
        return dict(self._registry)

    def check_ooc_accounting(self) -> None:
        """Assert the out-of-context conservation law.

        Every message ever parked must be accounted for exactly once:
        ``stored == pending + drained (replayed) + purged (instance
        destroyed) + evicted``.  Raises :class:`AssertionError` with the
        full balance on violation; the invariant layer calls this after
        every simulator event.
        """
        stored = self.stats.ooc_stored
        pending = len(self._ooc)
        drained = self.stats.ooc_drained
        purged = self.stats.ooc_purged
        evicted = self._ooc.evictions
        if stored != pending + drained + purged + evicted:
            raise AssertionError(
                f"p{self.process_id} OOC conservation broken: stored={stored} != "
                f"pending={pending} + drained={drained} + purged={purged} "
                f"+ evicted={evicted}"
            )

    @property
    def ooc_pending(self) -> int:
        return len(self._ooc)

    def ooc_has_prefix(self, prefix: Path) -> bool:
        """True if out-of-context messages are parked under *prefix*."""
        return self._ooc.has_prefix(tuple(prefix))

    @property
    def ooc(self) -> OocTable:
        """The out-of-context table (read-only diagnostics: peaks,
        per-sender pending counts, eviction attribution)."""
        return self._ooc

    # -- observability ---------------------------------------------------------------

    def sample_gauges(self) -> None:
        """Refresh this stack's depth gauges in its metrics registry.

        Runtimes call this periodically (and before snapshotting): the
        OOC table's pending depth, the live-instance count, and each
        root atomic-broadcast instance's locally-pending backlog (the
        quantity ``config.ab_pending_cap`` bounds).  Send-queue depths
        live in the runtimes, which sample them alongside this.  A no-op
        with metrics disabled.
        """
        metrics = self.metrics
        if not metrics.enabled:
            return
        ooc = self._ooc.snapshot()
        metrics.gauge("ritas_ooc_pending").set(ooc["pending"])
        metrics.gauge("ritas_ooc_bytes").set(ooc["bytes"])
        metrics.gauge("ritas_instances_live").set(len(self._registry))
        for path, block in self._registry.items():
            if block.protocol == "ab" and block.parent is None:
                metrics.gauge(
                    "ritas_ab_pending_local",
                    path="/".join(str(c) for c in path),
                ).set(block.pending_local)  # type: ignore[attr-defined]

    # -- flood defense ---------------------------------------------------------------

    def report_misbehavior(self, src: int, offense: str, weight: float | None = None) -> bool:
        """Score one offense by peer *src* in the misbehavior ledger.

        Only link-authenticated sources may be scored (never identities
        read out of payloads -- see :mod:`repro.core.ledger`); reports
        against self or out-of-range ids are ignored.  Returns True if
        this report moved the peer into quarantine.
        """
        if src == self.process_id or not 0 <= src < self.config.num_processes:
            return False
        self.stats.misbehavior_reports += 1
        entered = self.ledger.report(src, offense, weight)
        if entered:
            self.stats.quarantine_entries += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    self.process_id,
                    KIND_QUARANTINE,
                    (),
                    src=src,
                    offense=offense,
                    score=self.ledger.score(src),
                )
        return entered

    def _on_ooc_evict(self, mbuf: Mbuf, reason: str) -> None:
        """OOC eviction hook: count, trace and -- when the evicted
        sender exceeds its fair share -- score the offender."""
        if reason == EVICT_QUOTA:
            self.stats.ooc_quota_evictions += 1
        if self.tracer.enabled:
            self.tracer.emit(
                self.process_id, KIND_QUOTA, mbuf.path, src=mbuf.src, reason=reason
            )
        fair_share = max(1, self._ooc.capacity // self.config.num_processes)
        if reason == EVICT_QUOTA or self._ooc.pending_of(mbuf.src) >= fair_share:
            self.report_misbehavior(mbuf.src, "ooc-quota")

    # -- data plane -----------------------------------------------------------------

    def send_frame(self, dest: int, path: Path, mtype: int, payload: Any) -> None:
        prefix = self._path_prefix.get(path)
        if prefix is not None:
            data = encode_frame_from_prefix(prefix, mtype, payload)
        else:
            data = encode_frame(path, mtype, payload)
        self.stats.record_send(len(data))
        if self.tracer.enabled:
            self.tracer.emit(
                self.process_id, KIND_SEND, path, dest=dest, mtype=mtype, size=len(data)
            )
        self._emit(dest, data)

    def broadcast_frame(self, path: Path, mtype: int, payload: Any) -> None:
        """Send one frame to every process, encoding it exactly once.

        The identical bytes are handed to the outbox for each
        destination (the codec is canonical, so this matches what
        per-destination encoding would produce byte-for-byte).
        """
        prefix = self._path_prefix.get(path)
        if prefix is not None:
            data = encode_frame_from_prefix(prefix, mtype, payload)
        else:
            data = encode_frame(path, mtype, payload)
        size = len(data)
        tracing = self.tracer.enabled
        for dest in self.config.process_ids:
            self.stats.record_send(size)
            if tracing:
                self.tracer.emit(
                    self.process_id, KIND_SEND, path, dest=dest, mtype=mtype, size=size
                )
            self._emit(dest, data)

    def broadcast_frame_raw(self, path: Path, mtype: int, raw) -> None:
        """:meth:`broadcast_frame` for an already-encoded payload region.

        Splices *raw* after the cached path prefix -- byte-identical to
        the value-encoding path by canonicality, with the same
        statistics and trace accounting.
        """
        prefix = self._path_prefix.get(path)
        if prefix is None:
            prefix = encode_frame_prefix(path)
        data = encode_frame_from_prefix_raw(prefix, mtype, raw)
        size = len(data)
        tracing = self.tracer.enabled
        for dest in self.config.process_ids:
            self.stats.record_send(size)
            if tracing:
                self.tracer.emit(
                    self.process_id, KIND_SEND, path, dest=dest, mtype=mtype, size=size
                )
            self._emit(dest, data)

    # -- frame coalescing -----------------------------------------------------------

    @contextmanager
    def coalesce(self) -> Iterator[None]:
        """Open a flush window: frames sent inside it that share a
        destination leave as one batch channel unit.

        Windows nest; frames flush when the outermost window closes.
        With ``config.batching`` off this is a no-op and every frame
        goes to the outbox individually, exactly like the unbatched
        stack.  :meth:`receive` opens a window around each inbound
        channel unit, so replies provoked by one arrival coalesce
        automatically; runtimes and applications wrap bursts of sends
        the same way.
        """
        self._coalesce_depth += 1
        try:
            yield
        finally:
            self._coalesce_depth -= 1
            if self._coalesce_depth == 0 and self._pending_frames:
                self._flush_pending_frames()

    def _emit(self, dest: int, data: bytes) -> None:
        if self._coalesce_depth > 0 and self.config.batching:
            pending = self._pending_frames.setdefault(dest, [])
            pending.append(data)
            # A full window flushes eagerly: the pending path holds at
            # most SEND_BATCH_FRAMES frames per destination, so a long
            # receive cascade cannot balloon it.  The chunking matches
            # what window close would produce, so the wire is identical.
            if len(pending) >= SEND_BATCH_FRAMES:
                del self._pending_frames[dest]
                self.stats.record_batch_sent(
                    len(pending), (len(pending) - 1) * CHANNEL_HEADER_BYTES
                )
                self._outbox(dest, encode_batch(pending))
        else:
            self._outbox(dest, data)

    def _flush_pending_frames(self) -> None:
        pending, self._pending_frames = self._pending_frames, {}
        for dest, frames in pending.items():
            for start in range(0, len(frames), SEND_BATCH_FRAMES):
                chunk = frames[start : start + SEND_BATCH_FRAMES]
                if len(chunk) == 1:
                    # A lone frame travels bare: zero container overhead
                    # and byte-identical to the unbatched send.
                    self._outbox(dest, chunk[0])
                    continue
                self.stats.record_batch_sent(
                    len(chunk), (len(chunk) - 1) * CHANNEL_HEADER_BYTES
                )
                self._outbox(dest, encode_batch(chunk))

    def receive(self, src: int, data: bytes) -> None:
        """Entry point for the runtime: one channel unit arrived from
        *src* -- a single frame, or a batch of them.

        The reliable channel authenticates the link, so *src* is
        trustworthy; everything else in the frame is attacker-controlled
        and is decoded defensively.  A malformed batch container is
        dropped whole; a malformed frame inside a well-formed batch
        drops only that frame.

        A quarantined peer's units are dropped here, before any decode
        or protocol work -- the cheap path is the point of quarantine.
        """
        if src != self.process_id and self.ledger.quarantined(src):
            self.stats.frames_quarantine_dropped += 1
            self.stats.record_drop("quarantined")
            if self.tracer.enabled:
                self.tracer.emit(self.process_id, KIND_DROP, (), src=src, reason="quarantined")
            return
        # Inlined coalesce() window (the contextmanager shows up on
        # profiles at one open/close per received unit).
        self._coalesce_depth += 1
        try:
            self._receive_unit(src, data, 0)
        finally:
            self._coalesce_depth -= 1
            if self._coalesce_depth == 0 and self._pending_frames:
                self._flush_pending_frames()

    def _receive_unit(self, src: int, data, depth: int) -> None:
        if is_batch(data):
            if depth >= MAX_BATCH_DEPTH:
                self.stats.record_drop("batch-too-deep")
                self.report_misbehavior(src, "batch-too-deep")
                return
            try:
                frames = decode_batch_views(data)
            except WireFormatError:
                self.stats.record_drop("malformed-batch")
                self.report_misbehavior(src, "malformed-batch")
                if self.tracer.enabled:
                    self.tracer.emit(
                        self.process_id, KIND_DROP, (), src=src, reason="malformed-batch"
                    )
                return
            self.stats.record_batch_received(len(frames))
            for frame in frames:
                self._receive_unit(src, frame, depth + 1)
            return
        size = len(data)
        self.stats.record_receive(size)
        # One memoized parse (frame_fastpath): the n-1 repeat copies of a
        # broadcast skip the walk entirely.  The payload region comes
        # back validated, so every mbuf is lazy -- decoding it later
        # cannot fail -- and its raw payload is owned bytes.
        parsed = frame_fastpath(data)
        if parsed is None:
            self._drop_malformed(src)
            return
        path_key, mtype, raw = parsed
        # A frame for a live instance dispatches on the interned path
        # bytes: no path decode, no tuple allocation, no registry walk.
        block = self._demux.get(path_key)
        if block is not None:
            path = block.path
        else:
            try:
                path = frame_path(path_key)
            except WireFormatError:
                self._drop_malformed(src)
                return
        if self.tracer.enabled:
            self.tracer.emit(
                self.process_id, KIND_RECEIVE, path, src=src, mtype=mtype, size=size
            )
        mbuf = Mbuf.lazy(src, path, mtype, raw, wire_size=size, recv_time=self.clock())
        if block is not None:
            self._input_guarded(block, mbuf)
        else:
            self.route(mbuf)

    def _drop_malformed(self, src: int) -> None:
        self.stats.record_drop("malformed-frame")
        self.report_misbehavior(src, "malformed-frame")
        if self.tracer.enabled:
            self.tracer.emit(self.process_id, KIND_DROP, (), src=src, reason="malformed")

    def route(self, mbuf: Mbuf) -> None:
        """Demultiplex *mbuf* to its instance, or park it out-of-context."""
        instance = self._registry.get(mbuf.path)
        if instance is not None:
            self._input_guarded(instance, mbuf)
            return
        # Walk up the path looking for the deepest live ancestor that can
        # create the missing child (dynamic demultiplexing).
        for prefix_len in range(len(mbuf.path) - 1, 0, -1):
            ancestor = self._registry.get(mbuf.path[:prefix_len])
            if ancestor is None:
                continue
            created: bool | object = False
            try:
                created = ancestor.accept_orphan(mbuf)
            except ProtocolViolationError:
                self.stats.record_drop("protocol-violation")
                self.report_misbehavior(mbuf.src, "protocol-violation")
                return
            if created is ORPHAN_STALE:
                self.stats.record_drop("stale-frame")
                return
            if created:
                instance = self._registry.get(mbuf.path)
                if instance is not None:
                    self._input_guarded(instance, mbuf)
                    return
            break
        self._ooc.store(mbuf)
        self.stats.ooc_stored += 1
        self.stats.ooc_evicted = self._ooc.evictions
        if self.tracer.enabled:
            self.tracer.emit(self.process_id, KIND_OOC, mbuf.path, src=mbuf.src)

    def _input_guarded(self, instance: ControlBlock, mbuf: Mbuf) -> None:
        try:
            instance.input(mbuf)
        except ProtocolViolationError:
            self.stats.record_drop("protocol-violation")
            self.report_misbehavior(mbuf.src, "protocol-violation")
        except WireFormatError:
            # Defense in depth: lazy payloads are validated at receive
            # time, so a decode raising here means the validator and
            # decoder disagree -- treat it like any malformed frame
            # rather than letting it unwind the runtime.
            self.stats.record_drop("malformed-frame")
            self.report_misbehavior(mbuf.src, "malformed-frame")

    # -- randomness -------------------------------------------------------------------

    def toss_coin(self, instance_path: Path, round_number: int) -> int:
        """Obtain the round coin for a binary-consensus instance."""
        tag = "/".join(str(c) for c in instance_path).encode()
        value = self.coin.toss(tag, round_number)
        if self.metrics.enabled:
            # Counted at toss time -- not on the adopt-coin path -- so
            # the coin-skew gauge covers every tossed round, including
            # ones where a-priori agreement made the toss moot.
            self.metrics.counter("ritas_bc_coin_total", value=value).inc()
        return value

"""Bounded, priority-aware outbound frame queue.

Both runtimes keep one FIFO of encoded channel units per peer (the TCP
links, the simulator's link buffers).  Unbounded, those queues
are the easiest resource for a flooded or dead peer to exhaust:
frames pile up faster than the link drains them and memory grows until
the process dies -- exactly the denial-of-service the paper's protocols
cannot prevent on their own.

:class:`BoundedSendQueue` caps the queue at ``max_frames`` entries.
When a push would exceed the cap, the queue sheds the *oldest entry of
the lowest priority class at or below the incoming frame's priority*
(see :func:`repro.core.wire.frame_priority`): agreement votes outlive
payload frames, which outlive bulk state transfer.  Crucially the
surviving entries keep their FIFO order -- per-pair FIFO is a channel
assumption the protocols above rely on -- shedding removes frames, it
never reorders them.

``max_frames == 0`` disables the bound (seed behaviour).

Operations are O(1): a seq-numbered :class:`~collections.OrderedDict`
holds the FIFO, and one deque per priority class tracks shedding
candidates.  The head of the lowest-priority non-empty deque is always
the correct victim because entries enter both structures in the same
order and leave them together.
"""

from __future__ import annotations

from collections import Counter, OrderedDict, deque

from repro.core.wire import (
    PRIORITY_AGREEMENT,
    PRIORITY_BULK,
    PRIORITY_PAYLOAD,
    frame_priority,
)

_NUM_PRIORITIES = PRIORITY_AGREEMENT + 1


class BoundedSendQueue:
    """Per-peer FIFO of encoded frames with priority-aware shedding.

    Args:
        max_frames: most entries kept; 0 means unbounded.
    """

    def __init__(self, max_frames: int = 0):
        if max_frames < 0:
            raise ValueError("max_frames must be >= 0")
        self.max_frames = max_frames
        self._entries: "OrderedDict[int, tuple[int, bytes]]" = OrderedDict()
        self._by_priority: list[deque[int]] = [deque() for _ in range(_NUM_PRIORITIES)]
        self._next_seq = 0
        self._bytes = 0
        self.peak_frames = 0
        self.peak_bytes = 0
        self.frames_shed = 0
        self.bytes_shed = 0
        self.shed_by_priority: Counter = Counter()

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    @property
    def bytes(self) -> int:
        return self._bytes

    def snapshot(self) -> dict[str, int]:
        """Point-in-time depth/shedding view for the metrics layer (the
        runtimes' queue-gauge samplers) and tests."""
        return {
            "frames": len(self._entries),
            "bytes": self._bytes,
            "peak_frames": self.peak_frames,
            "peak_bytes": self.peak_bytes,
            "frames_shed": self.frames_shed,
            "bytes_shed": self.bytes_shed,
        }

    # -- operations -----------------------------------------------------------

    def push(self, data: bytes, priority: int | None = None) -> list[bytes]:
        """Enqueue *data*; returns the frames shed to make room.

        The shed list may contain *data* itself: when every queued frame
        outranks the newcomer, the newcomer is the victim (an agreement
        backlog is worth more than one more bulk chunk).
        """
        if priority is None:
            if not self.max_frames:
                # Unbounded queue: classification only matters for
                # shedding, which can never trigger -- skip the header
                # peek entirely (it decodes every batch member).
                priority = PRIORITY_PAYLOAD
            else:
                priority = frame_priority(data)
        priority = min(max(priority, PRIORITY_BULK), PRIORITY_AGREEMENT)
        shed: list[bytes] = []
        if self.max_frames and len(self._entries) >= self.max_frames:
            victim = self._shed_for(priority)
            if victim is None:
                self.frames_shed += 1
                self.bytes_shed += len(data)
                self.shed_by_priority[priority] += 1
                return [data]
            shed.append(victim)
        seq = self._next_seq
        self._next_seq += 1
        self._entries[seq] = (priority, data)
        self._by_priority[priority].append(seq)
        self._bytes += len(data)
        if len(self._entries) > self.peak_frames:
            self.peak_frames = len(self._entries)
        if self._bytes > self.peak_bytes:
            self.peak_bytes = self._bytes
        return shed

    def _shed_for(self, incoming_priority: int) -> bytes | None:
        """Evict the oldest entry of the lowest class <= *incoming_priority*.

        Returns the evicted frame, or None when nothing at or below that
        class is queued (the caller's frame becomes the victim).
        """
        for prio in range(incoming_priority + 1):
            bucket = self._by_priority[prio]
            if bucket:
                seq = bucket.popleft()
                _, data = self._entries.pop(seq)
                self._bytes -= len(data)
                self.frames_shed += 1
                self.bytes_shed += len(data)
                self.shed_by_priority[prio] += 1
                return data
        return None

    def pop(self) -> bytes | None:
        """Dequeue the oldest frame (FIFO across all priorities)."""
        if not self._entries:
            return None
        seq, (priority, data) = self._entries.popitem(last=False)
        # The FIFO head entered first, so it is also the head of its
        # priority deque -- popping both keeps the structures aligned.
        self._by_priority[priority].popleft()
        self._bytes -= len(data)
        return data

    def drain(self) -> list[bytes]:
        """Dequeue everything, in FIFO order."""
        out = [data for _, data in self._entries.values()]
        self._entries.clear()
        for bucket in self._by_priority:
            bucket.clear()
        self._bytes = 0
        return out

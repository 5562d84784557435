"""Bounded, priority-aware outbound frame queue.

Both runtimes keep one FIFO of encoded frames per peer (the TCP links,
the simulator's link buffers); the link flush turns a drained FIFO into
channel units.  Unbounded, the queue toward a slow or flooded peer is
the easiest resource to exhaust: frames pile up faster than the link
drains them and memory grows until the process dies -- exactly the
denial-of-service the paper's protocols cannot prevent on their own.
(A crashed peer costs nothing: the simulator drops frames to it, and a
TCP link that went down sheds at the outbox.)

:class:`BoundedSendQueue` caps the queue at ``max_frames`` entries.
When a push would exceed the cap, the queue sheds the *oldest entry of
the lowest priority class at or below the incoming frame's priority*
(see :func:`repro.core.wire.frame_priority`): agreement votes outlive
payload frames, which outlive bulk state transfer.  Crucially the
surviving entries keep their FIFO order -- per-pair FIFO is a channel
assumption the protocols above rely on -- shedding removes frames, it
never reorders them.

``max_frames == 0`` disables the bound (seed behaviour).

Operations are O(1): a seq-numbered dict (insertion-ordered) holds
the FIFO, and, in a bounded queue, one deque per priority class tracks
shedding candidates.  The head of the lowest-priority non-empty deque
is always the correct victim because entries enter both structures in
the same order and leave them together.
"""

from __future__ import annotations

from collections import deque

from repro.core.wire import PRIORITY_AGREEMENT, frame_priority

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
        self._entries: dict[int, bytes] = {}
        self._by_priority: list[deque[int]] = [deque() for _ in range(_NUM_PRIORITIES)]
        self._next_seq = 0
        self._bytes = 0

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    @property
    def bytes(self) -> int:
        return self._bytes

    # -- operations -----------------------------------------------------------

    def push(self, data: bytes) -> list[bytes]:
        """Enqueue *data*; returns the frames shed to make room.

        Only a bounded queue reads the frame's priority.  The shed list
        may contain *data* itself: when every queued frame outranks the
        newcomer, the newcomer is the victim (an agreement backlog is
        worth more than one more bulk chunk).
        """
        shed: list[bytes] = []
        seq = self._next_seq
        if self.max_frames:
            priority = frame_priority(data)
            if len(self._entries) >= self.max_frames:
                victim = self._shed_for(priority)
                if victim is None:
                    return [data]
                shed.append(victim)
            self._by_priority[priority].append(seq)
        self._next_seq = seq + 1
        self._entries[seq] = data
        self._bytes += len(data)
        return shed

    def _shed_for(self, incoming_priority: int) -> bytes | None:
        """Evict the oldest entry of the lowest class <= *incoming_priority*.

        Returns the evicted frame, or None when nothing at or below that
        class is queued (the caller's frame becomes the victim).
        """
        for prio in range(incoming_priority + 1):
            bucket = self._by_priority[prio]
            if bucket:
                data = self._entries.pop(bucket.popleft())
                self._bytes -= len(data)
                return data
        return None

    def drain(self) -> list[bytes]:
        """Dequeue everything, in FIFO order."""
        out = list(self._entries.values())
        self._entries.clear()
        for bucket in self._by_priority:
            bucket.clear()
        self._bytes = 0
        return out

"""Out-of-context (OOC) message storage.

Section 3.4 of the paper: the stack is asynchronous, so correct messages
can arrive addressed to protocol instances whose control block does not
exist yet.  Such messages are parked in a hash table and delivered when
the instance is created; when an instance is destroyed, its pending OOC
messages are purged so nothing lingers forever.

The table is bounded (a corrupt process could otherwise exhaust memory
by flooding frames for instances that will never exist), and the bound
is **per sender**: each sender may hold ``quota`` entries, and storing
past that evicts the sender's own oldest entry, never anyone else's.
The stack sets the quota to ``ooc_capacity // n``, so the quotas sum to
at most ``ooc_capacity`` and the table itself never overflows: a
flooder churns only its own entries, and honest parked messages
survive.  With one sender this is the seed's plain FIFO.  Eviction
victims are reported through :attr:`on_evict` so the stack can score
the offending peer in its misbehavior ledger.

Prefix operations (``has_prefix``/``drain_prefix``/``purge_prefix``) are
O(matching) via a prefix index -- every stored path is registered under
each of its prefixes -- instead of the seed's O(table) linear scans.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Callable

from repro.core.mbuf import Mbuf
from repro.core.wire import Path


class OocTable:
    """Bounded store of messages awaiting their protocol instance.

    Args:
        quota: entries each sender may hold.
    """

    def __init__(self, quota: int):
        if quota < 1:
            raise ValueError("OOC quota must be >= 1")
        self._quota = quota
        self._seq = 0
        # path -> {seq: mbuf}; dict preserves insertion (FIFO) order and
        # allows O(1) removal of an arbitrary seq during eviction.
        self._buckets: dict[Path, dict[int, Mbuf]] = {}
        # Every prefix of every stored path -> the stored paths under it.
        self._prefix_index: dict[Path, set[Path]] = {}
        # sender -> seq -> path, insertion-ordered: the sender's own FIFO.
        self._by_sender: dict[int, OrderedDict[int, Path]] = {}
        self._size = 0
        self.bytes = 0
        self.peak_size = 0
        self.peak_bytes = 0
        self.evictions = 0
        self.evictions_by_src: Counter = Counter()
        #: Optional hook ``(mbuf)`` called for every eviction.
        self.on_evict: Callable[[Mbuf], None] | None = None

    def __len__(self) -> int:
        return self._size

    def snapshot(self) -> dict[str, int]:
        """Point-in-time depth/accounting view for the metrics layer
        (``StackMetrics.sample`` in :mod:`repro.obs.stack_metrics`) and tests."""
        return {
            "pending": self._size,
            "bytes": self.bytes,
            "peak_pending": self.peak_size,
            "peak_bytes": self.peak_bytes,
            "evictions": self.evictions,
        }

    # -- storing / eviction ----------------------------------------------------

    def store(self, mbuf: Mbuf) -> None:
        """Park *mbuf* until an instance for its path appears; a sender
        at its quota loses its own oldest entry first."""
        src = mbuf.src
        entries = self._by_sender.get(src)
        if entries is None:
            entries = self._by_sender[src] = OrderedDict()
        elif len(entries) >= self._quota:
            self._evict_oldest(src, entries)
        seq = self._seq
        self._seq += 1
        bucket = self._buckets.get(mbuf.path)
        if bucket is None:
            bucket = {}
            self._buckets[mbuf.path] = bucket
            self._index_add(mbuf.path)
        bucket[seq] = mbuf
        entries[seq] = mbuf.path
        self._size += 1
        self.bytes += mbuf.wire_size
        if self._size > self.peak_size:
            self.peak_size = self._size
        if self.bytes > self.peak_bytes:
            self.peak_bytes = self.bytes

    def _evict_oldest(self, src: int, entries: OrderedDict) -> None:
        seq, path = entries.popitem(last=False)
        bucket = self._buckets[path]
        mbuf = bucket.pop(seq)
        if not bucket:
            del self._buckets[path]
            self._index_remove(path)
        self._size -= 1
        self.bytes -= mbuf.wire_size
        self.evictions += 1
        self.evictions_by_src[src] += 1
        if self.on_evict is not None:
            self.on_evict(mbuf)

    # -- prefix index -----------------------------------------------------------

    def _index_add(self, path: Path) -> None:
        for depth in range(len(path) + 1):
            self._prefix_index.setdefault(path[:depth], set()).add(path)

    def _index_remove(self, path: Path) -> None:
        for depth in range(len(path) + 1):
            prefix = path[:depth]
            paths = self._prefix_index.get(prefix)
            if paths is not None:
                paths.discard(path)
                if not paths:
                    del self._prefix_index[prefix]

    def has_prefix(self, prefix: Path) -> bool:
        """True if any parked message's path starts with *prefix*."""
        return prefix in self._prefix_index

    def drain_prefix(self, prefix: Path) -> list[Mbuf]:
        """Remove and return all messages whose path starts with *prefix*,
        in arrival order.

        Called when an instance registers: messages addressed to it (or to
        descendants it may create) are re-routed through the stack.
        """
        paths = self._prefix_index.get(prefix)
        if not paths:
            return []
        drained: list[tuple[int, Mbuf]] = []
        for path in list(paths):
            bucket = self._buckets.pop(path)
            self._index_remove(path)
            for seq, mbuf in bucket.items():
                drained.append((seq, mbuf))
                entries = self._by_sender.get(mbuf.src)
                if entries is not None:
                    entries.pop(seq, None)
                    if not entries:
                        del self._by_sender[mbuf.src]
            self._size -= len(bucket)
            self.bytes -= sum(m.wire_size for m in bucket.values())
        drained.sort(key=lambda item: item[0])
        return [mbuf for _, mbuf in drained]

    def purge_prefix(self, prefix: Path) -> int:
        """Drop all messages under *prefix*; returns how many were dropped.

        Called when an instance is destroyed (Section 3.4: "upon the
        destruction of a protocol, the hash table is checked and all the
        relevant messages are deleted").
        """
        return len(self.drain_prefix(prefix))

    # -- self-validation ---------------------------------------------------------

    def check_consistency(self) -> None:
        """Assert every internal index agrees with the buckets.

        Checks that the size and byte counters match the stored entries,
        that the per-sender FIFOs reference exactly the stored messages,
        and that the prefix index holds precisely the live paths under
        each of their prefixes (no stale entries pointing at evicted
        messages, no empty buckets).  O(entries x path depth) -- meant
        for the invariant checker and tests, not per-message hot paths.
        Raises :class:`AssertionError` describing the first divergence.
        """
        size = 0
        total_bytes = 0
        seqs: set[int] = set()
        for path, bucket in self._buckets.items():
            if not bucket:
                raise AssertionError(f"empty OOC bucket left behind at {path!r}")
            size += len(bucket)
            total_bytes += sum(m.wire_size for m in bucket.values())
            seqs.update(bucket)
        if size != self._size:
            raise AssertionError(f"OOC size counter {self._size} != stored {size}")
        if total_bytes != self.bytes:
            raise AssertionError(f"OOC byte counter {self.bytes} != stored {total_bytes}")
        sender_seqs: set[int] = set()
        for src, entries in self._by_sender.items():
            if not entries:
                raise AssertionError(f"empty per-sender FIFO left behind for src {src}")
            for seq, path in entries.items():
                bucket = self._buckets.get(path)
                if bucket is None or seq not in bucket:
                    raise AssertionError(
                        f"per-sender FIFO of src {src} references missing entry "
                        f"seq={seq} path={path!r}"
                    )
                if bucket[seq].src != src:
                    raise AssertionError(
                        f"entry seq={seq} filed under src {src} but sent by "
                        f"{bucket[seq].src}"
                    )
            sender_seqs.update(entries)
        if sender_seqs != seqs:
            raise AssertionError(
                f"per-sender FIFOs track {len(sender_seqs)} entries, "
                f"buckets hold {len(seqs)}"
            )
        expected_index: dict[Path, set[Path]] = {}
        for path in self._buckets:
            for depth in range(len(path) + 1):
                expected_index.setdefault(path[:depth], set()).add(path)
        if expected_index != self._prefix_index:
            stale = {
                prefix: paths - expected_index.get(prefix, set())
                for prefix, paths in self._prefix_index.items()
                if paths - expected_index.get(prefix, set())
            }
            missing = {
                prefix: paths - self._prefix_index.get(prefix, set())
                for prefix, paths in expected_index.items()
                if paths - self._prefix_index.get(prefix, set())
            }
            raise AssertionError(
                f"OOC prefix index diverged: stale={stale!r} missing={missing!r}"
            )

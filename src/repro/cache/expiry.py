"""Expiry index: find the next entry to die in O(log n).

The seed implementations scanned every entry on ``expire()`` and, when
full, evicted a *live* LRU entry even while expired ones sat in the
table. A lazy min-heap over ``(expires_at, key)`` fixes both: bulk
expiry pops only what is actually stale, and capacity eviction can ask
"is anything already dead?" before touching a live entry.

Laziness: entries are never removed from the heap on overwrite or
delete; a heap record is *current* only if the store still maps the key
to the same expiry time. Stale heap records are skipped on pop and the
heap is compacted once they dominate, keeping amortised costs
logarithmic.
"""

from __future__ import annotations

import heapq
from typing import Any, Hashable, List, Mapping, Optional, Tuple

#: Compact when the heap holds this many times more records than the
#: store has entries (bounds memory and amortises the rebuild).
_COMPACT_FACTOR = 4


class ExpiryIndex:
    """A lazy min-heap of ``(expires_at, key)`` records.

    Parameters
    ----------
    entries:
        The owning store's key → entry mapping, read (never written) to
        decide whether a record is current: it is when the key is still
        stored and its entry's ``expires_at`` equals the record's. The
        index holds the mapping itself, not a callback into its owner,
        so a cache and its index form no reference cycle and are freed
        by reference counting alone.
    """

    __slots__ = ("_heap", "_counter", "_entries")

    def __init__(self, entries: Mapping[Hashable, Any]) -> None:
        self._heap: List[Tuple[float, int, Hashable]] = []
        self._counter = 0
        self._entries = entries

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, expires_at: float, key: Hashable) -> None:
        """Record that *key* now expires at *expires_at*."""
        self._counter += 1
        heapq.heappush(self._heap, (expires_at, self._counter, key))

    def _skim(self) -> Optional[Tuple[float, Hashable]]:
        """Drop dead records off the top; return the current minimum."""
        heap = self._heap
        entries = self._entries
        while heap:
            expires_at, _, key = heap[0]
            entry = entries.get(key)
            if entry is not None and entry.expires_at == expires_at:
                return expires_at, key
            heapq.heappop(heap)
        return None

    def peek_expired(self, now: float) -> Optional[Hashable]:
        """The key of one expired entry, or ``None`` if all are fresh."""
        top = self._skim()
        if top is not None and top[0] <= now:
            return top[1]
        return None

    def pop_expired(self, now: float) -> Optional[Hashable]:
        """Remove and return one expired key (its heap record only —
        the caller removes it from the store)."""
        top = self._skim()
        if top is None or top[0] > now:
            return None
        heapq.heappop(self._heap)
        return top[1]

    def compact_if_needed(self, live_entries: int) -> None:
        """Rebuild the heap when dead records dominate it."""
        if len(self._heap) <= max(8, live_entries * _COMPACT_FACTOR):
            return
        current = []
        seen = set()
        entries = self._entries
        # Keep the newest record per key (later counter wins).
        for expires_at, counter, key in sorted(
            self._heap, key=lambda rec: -rec[1]
        ):
            if key in seen:
                continue
            entry = entries.get(key)
            if entry is not None and entry.expires_at == expires_at:
                seen.add(key)
                current.append((expires_at, counter, key))
        heapq.heapify(current)
        self._heap = current

    def clear(self) -> None:
        self._heap.clear()
        self._counter = 0

"""A small bounded LRU mapping shared by the hot memoisation caches.

The TRACER driver and the backward meta-analysis memoise expensive
pure work (forward fixpoints, weakest preconditions).
Before this helper existed each cache either grew without bound or
dropped its *entire* working set when it crossed a size threshold —
a hot loop straddling the threshold would then rebuild 500k entries
from scratch.  :class:`LruCache` evicts one cold entry at a time
instead.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator, Optional

_MISSING = object()


class LruCache:
    """A dict bounded to ``max_entries`` with least-recently-used
    eviction.  Lookups refresh recency; overflow evicts exactly one
    (the coldest) entry, so a working set slightly above the bound
    degrades gracefully instead of thrashing.
    """

    __slots__ = ("max_entries", "_entries", "hits", "misses", "__weakref__")

    def __init__(self, max_entries: int):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, default=None):
        """Return the cached value (refreshing recency) or ``default``."""
        entries = self._entries
        value = entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        """Insert ``key``, evicting the coldest entry on overflow."""
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        if len(entries) > self.max_entries:
            entries.popitem(last=False)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator:
        return iter(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

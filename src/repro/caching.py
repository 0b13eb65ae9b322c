"""Small shared caching primitives.

:class:`LRUCache` is the bounded, least-recently-used map behind the
engine's statement cache (text -> :class:`~repro.engine.Prepared`).  It
keeps hit/miss counters so callers (the shell's ``:cache`` command,
PROFILE, the server's ``/stats``) can report cache effectiveness.

There is no lock: every step is one C-level ``OrderedDict`` call on a
hashable key, atomic under the interpreter lock, and the one compound
step -- a hit refreshing recency -- tolerates losing its entry to a
concurrent eviction (the value already read is still good).  Counters
are advisory under concurrent use.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

_MISSING = object()


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    ``get`` refreshes recency; ``put`` inserts (or refreshes) and evicts
    the stalest entry once ``capacity`` is exceeded.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_data")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("LRUCache capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value, or *default*; refreshes recency on a hit."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        try:
            self._data.move_to_end(key)
        except KeyError:  # evicted by another thread since the read
            pass
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the stalest if full."""
        data = self._data
        data.pop(key, None)
        data[key] = value
        while len(data) > self.capacity:
            try:
                data.popitem(last=False)
            except KeyError:  # emptied by another thread
                break
            self.evictions += 1

    def info(self) -> dict[str, int]:
        """Plain-dict counters: hits, misses, evictions, size, capacity."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._data),
            "capacity": self.capacity,
        }

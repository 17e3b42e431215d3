"""A bounded LRU cache with hit/miss/eviction statistics.

No scheduler uses it.  The time-counter search
(:mod:`repro.core.time_counter`) memoises completion times in plain dicts,
which its ``max_states`` expansion budget keeps bounded (see the
``TimeCounter`` docstring and docs/design.md, "Memo tables").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

__all__ = ["BoundedCache", "CacheStats"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class CacheStats:
    """Hit/miss/eviction counters for a :class:`BoundedCache`."""

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups performed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


class BoundedCache(Generic[K, V]):
    """A small LRU cache with explicit statistics.

    Parameters
    ----------
    max_entries:
        Maximum number of entries retained.  ``None`` disables eviction
        (unbounded cache).
    """

    def __init__(self, max_entries: int | None = 100_000) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive or None, got {max_entries}")
        self._max_entries = max_entries
        self._data: OrderedDict[K, V] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def get(self, key: K, default: V | None = None) -> V | None:
        """Return the cached value for ``key`` (marking it most-recent)."""
        try:
            value = self._data[key]
        except KeyError:
            self.stats.misses += 1
            return default
        self.stats.hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> None:
        """Insert ``key -> value``, evicting the LRU entry if full."""
        self._data[key] = value
        self._data.move_to_end(key)
        if self._max_entries is not None and len(self._data) > self._max_entries:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every cached entry (statistics are preserved)."""
        self._data.clear()

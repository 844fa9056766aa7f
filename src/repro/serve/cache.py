"""Bounded LRU result cache for the query server.

Subjective-query traffic is Zipfian — "cute animals" is asked far more
often than "not quiet very young celebrities" — so a small LRU over
fully rendered responses absorbs most of the load. Design points:

* **Rendered once.** The service stores a :class:`CacheEntry`: the
  response dict and its wire bytes, rendered when the entry is made.
  A hit hands the HTTP core those bytes; it keeps no store of its own.
* **Bounded.** At most ``max_entries`` responses; inserting past the
  bound evicts the least-recently-used entry.
* **Generation-scoped.** Every key carries the index generation it was
  computed against. When the server hot-swaps the opinion table it
  calls :meth:`purge_generations`, dropping every entry from older
  generations in one sweep — a reader can never be served an answer
  mined from a table that is no longer live.
* **Accounted.** Hits, misses, LRU evictions, and swap invalidations
  are counted locally (for ``/healthz``) and mirrored into a
  :class:`~repro.obs.metrics.MetricsRegistry` when one is attached
  (for ``/metrics``).
* **Thread-safe.** One mutex around the ordered dict; the critical
  sections are a handful of dict operations.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, NamedTuple

from ..obs.metrics import MetricsRegistry
from .schema import render

DEFAULT_MAX_ENTRIES = 1024


class CacheEntry(NamedTuple):
    """One answer as served: the response dict and its wire bytes."""

    response: dict[str, Any]
    body: bytes

    @classmethod
    def of(cls, response: dict[str, Any]) -> "CacheEntry":
        """Render ``response`` once, by the one wire rule."""
        return cls(response, render(response))


class QueryCache:
    """LRU response cache with hit/miss/eviction accounting."""

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be at least 1, got {max_entries}"
            )
        self.max_entries = int(max_entries)
        self._registry = registry
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._live_generation: int | None = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _inc(self, name: str, amount: int = 1) -> None:
        if self._registry is not None and amount:
            self._registry.inc(name, amount)

    def get(self, key: Hashable) -> Any | None:
        """Cached value, refreshed as most recently used; else None."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        if value is not None:
            self._inc("repro_serve_cache_hits_total")
        else:
            self._inc("repro_serve_cache_misses_total")
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting LRU past the bound.

        A put whose generation-tagged key predates the last purge is
        silently dropped: a request that raced a hot swap (answered
        from the old index, stored after the purge) must not leak a
        stale entry back into a cache that was just invalidated.
        """
        if value is None:
            raise ValueError("cache values must not be None")
        evicted = 0
        with self._lock:
            if (
                self._live_generation is not None
                and isinstance(key, tuple)
                and key
                and isinstance(key[0], int)
                and key[0] < self._live_generation
            ):
                self.invalidations += 1
                self._inc("repro_serve_cache_invalidations_total")
                return
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        self._inc("repro_serve_cache_evictions_total", evicted)

    def purge_generations(self, live_generation: int) -> int:
        """Drop every entry computed against an older generation.

        Keys are ``(generation, ...)`` tuples (the service's
        convention); anything else is dropped too, defensively. Also
        records ``live_generation`` so a racing :meth:`put` from a
        request answered against the old index is rejected (see
        :meth:`put`).
        """
        with self._lock:
            self._live_generation = live_generation
            stale = [
                key
                for key in self._entries
                if not (
                    isinstance(key, tuple)
                    and key
                    and key[0] == live_generation
                )
            ]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
        self._inc(
            "repro_serve_cache_invalidations_total", len(stale)
        )
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
        self._inc("repro_serve_cache_invalidations_total", dropped)

    def stats(self) -> dict[str, int]:
        """Snapshot for ``/healthz``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }

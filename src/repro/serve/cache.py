"""LRU response cache keyed on quantized inputs.

ICF design-space exploration hammers the surrogate with near-duplicate
parameter vectors (line searches, grid refinements around an optimum).
Two queries within ``quantum`` of each other would get outputs closer
than the surrogate's own fidelity, so they share a cache entry: keys are
the parameter vector snapped to a ``quantum`` grid.  ``quantum=0``
disables snapping (exact float equality only).

The cache itself is version-blind: the server *clears* it on every
hot-reload, and — because a micro-batch already executing on the previous
model fills the cache after that clear — checks a hit's version stamp
against the serving version before answering from it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

import numpy as np

__all__ = ["ResponseCache"]


class ResponseCache:
    """Thread-safe fixed-capacity LRU over quantized parameter keys."""

    def __init__(self, capacity: int = 1024, quantum: float = 1e-6) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if quantum < 0:
            raise ValueError("quantum must be >= 0")
        self.capacity = int(capacity)
        self.quantum = float(quantum)
        self._entries: OrderedDict[bytes, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def key(self, params: np.ndarray) -> bytes:
        """Quantized lookup key of one parameter row."""
        row = np.asarray(params, dtype=np.float64).ravel()
        if self.quantum > 0.0:
            # rint keeps ties-to-even, so keys are reproducible across
            # platforms; int64 avoids -0.0 vs 0.0 aliasing pitfalls.
            row = np.rint(row / self.quantum).astype(np.int64)
        return row.tobytes()

    def get(self, key: bytes):
        """The cached value, or ``None``; refreshes recency on hit."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: bytes, value) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (hot-reload path); stats survive."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

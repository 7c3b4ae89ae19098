"""Shared claim cursor: mutually exclusive chunk claiming over [0, total).

Claims are linearizable (a single lock orders them), pairwise disjoint, and
jointly cover the whole index range; observed start positions strictly
increase. Any number of threads may claim concurrently.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Chunk:
    """Half-open element range [start, finish) claimed by one processing unit."""

    start: int
    finish: int

    def __post_init__(self):
        if not (0 <= self.start < self.finish):
            raise ValueError(f"invalid chunk [{self.start}, {self.finish})")

    def __len__(self) -> int:
        return self.finish - self.start


class SharedCursor:
    """Monotone cursor over a total element count."""

    def __init__(self, total: int):
        if total < 0:
            raise ValueError("total must be non-negative")
        self.total = total
        self._next = 0
        self._lock = threading.Lock()

    @property
    def remaining(self) -> int:
        """Elements not yet claimed; other threads may claim some at once."""
        return self.total - self._next

    def claim(self, chunk_size: int) -> Optional[Chunk]:
        """Claim the next chunk of at most ``chunk_size`` elements.

        Returns None once the cursor is exhausted.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        with self._lock:
            if self._next >= self.total:
                return None
            start = self._next
            finish = min(start + chunk_size, self.total)
            self._next = finish
        return Chunk(start, finish)

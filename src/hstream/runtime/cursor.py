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


@dataclass(frozen=True)
class ClaimRecord:
    tag: Optional[int]  # claiming PU id, when provided
    start: int
    finish: int


class SharedCursor:
    """Monotone cursor over a total element count.

    With ``record_claims=True`` every successful claim is logged in claim
    order (the lock serializes them), which tests use to check the
    disjoint-cover and monotonicity contracts.
    """

    def __init__(self, total: int, record_claims: bool = False):
        if total < 0:
            raise ValueError("total must be non-negative")
        self.total = total
        self._next = 0
        self._lock = threading.Lock()
        self.claim_log: Optional[list[ClaimRecord]] = [] if record_claims else None

    def claim(self, chunk_size: int, tag: Optional[int] = None) -> Optional[Chunk]:
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
            if self.claim_log is not None:
                self.claim_log.append(ClaimRecord(tag, start, finish))
        return Chunk(start, finish)

    @property
    def exhausted(self) -> bool:
        with self._lock:
            return self._next >= self.total


"""Lightweight kernel trace, mainly for tests and the FIG-3 bench.

Two bounded policies (both O(1) per record, with a per-kind index so
``of_kind``/``count`` never scan the full record list):

- ``ring=False`` (default): keep the *first* ``limit`` records; once the
  limit is reached nothing is allocated at all — the hot path does one
  length test and bumps ``dropped``.
- ``ring=True``: a classic ring buffer keeping the *last* ``limit``
  records, evicting the oldest; ``dropped`` counts evictions.

``detail`` may be a zero-argument callable; it is only rendered when the
record is actually stored, so call sites can trace expensive formatted
strings (``lambda: repr(exc)``) for free on the fast path.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterator, List, NamedTuple, Optional


class TraceRecord(NamedTuple):
    """One stored record (a tuple: cheap to build on the journal's hot path)."""

    time: int
    process: str
    kind: str
    detail: Any = None


#: builds a record without the generated ``__new__``'s Python frame
#: (same tuple as ``TraceRecord(...)``; the journal makes one per event)
_new_record = tuple.__new__


class TraceSnapshot(NamedTuple):
    """A consistent point-in-time copy of a recorder's state.

    ``records`` are the stored records (oldest first), ``kind_counts``
    the lifetime per-kind totals and ``dropped`` the number of records
    the bound discarded — all taken together, so a caller never observes
    a records list from one moment paired with counters from another.
    """

    records: List[TraceRecord]
    kind_counts: Dict[str, int]
    dropped: int


class TraceRecorder:
    """Accumulates kernel events; cheap enough to leave on in tests."""

    __slots__ = ("limit", "ring", "dropped", "kind_counts", "_records", "_by_kind")

    def __init__(self, limit: Optional[int] = None, ring: bool = False):
        self.limit = limit
        self.ring = ring
        self.dropped = 0
        #: lifetime events seen per kind (including dropped/evicted ones)
        self.kind_counts: Dict[str, int] = {}
        self._records: Deque[TraceRecord] = deque()
        self._by_kind: Dict[str, Deque[TraceRecord]] = {}

    @property
    def records(self) -> List[TraceRecord]:
        """Stored records, oldest first."""
        return list(self._records)

    def __len__(self) -> int:
        """Stored record count (lifetime totals live in ``kind_counts``)."""
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        """Iterate the stored records, oldest first, without copying."""
        return iter(self._records)

    def at(self, index: int) -> TraceRecord:
        """The stored record at ``index`` (0-based, oldest first)."""
        return self._records[index]

    def snapshot(self) -> TraceSnapshot:
        """Atomically copy (records, kind_counts, dropped) — the public
        way to read a recorder's full state without poking internals."""
        return TraceSnapshot(list(self._records), dict(self.kind_counts), self.dropped)

    def record(
        self, time: int, process: str, kind: str, detail: Any = None
    ) -> Optional[TraceRecord]:
        """Count one event and store it; returns the stored record, or
        None when the cap dropped it."""
        counts = self.kind_counts
        counts[kind] = counts.get(kind, 0) + 1
        limit = self.limit
        if limit is not None and len(self._records) >= limit:
            if not self.ring:
                # capped mode: drop the newest without building the record
                self.dropped += 1
                return None
            if limit <= 0:
                self.dropped += 1
                return None
            evicted = self._records.popleft()
            self._by_kind[evicted.kind].popleft()
            self.dropped += 1
        if callable(detail):
            detail = detail()
        rec = _new_record(TraceRecord, (time, process, kind, detail))
        self._records.append(rec)
        bucket = self._by_kind.get(kind)
        if bucket is None:
            bucket = self._by_kind[kind] = deque()
        bucket.append(rec)
        return rec

    def drain_oldest(self, n: int) -> List[TraceRecord]:
        """Remove and return the ``n`` oldest stored records (in order).

        Unlike ring eviction this is *rotation*, not loss: the caller is
        expected to persist the drained records elsewhere (see
        :class:`~repro.sim.segments.SegmentStore`), so ``dropped`` is not
        incremented and ``kind_counts`` keeps its lifetime totals."""
        out: List[TraceRecord] = []
        for _ in range(min(n, len(self._records))):
            rec = self._records.popleft()
            self._by_kind[rec.kind].popleft()
            out.append(rec)
        return out

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """Stored records of one kind — O(matches), not O(all records)."""
        bucket = self._by_kind.get(kind)
        return list(bucket) if bucket else []

    def count(self, kind: str) -> int:
        """Currently stored records of one kind, O(1)."""
        bucket = self._by_kind.get(kind)
        return len(bucket) if bucket else 0

    def total(self, kind: str) -> int:
        """Lifetime events of one kind, including dropped/evicted, O(1)."""
        return self.kind_counts.get(kind, 0)

    def clear(self) -> None:
        self._records.clear()
        self._by_kind.clear()
        self.kind_counts.clear()
        self.dropped = 0

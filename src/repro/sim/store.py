"""The bounded record store behind the span sink and the replay journal.

A :class:`BoundedStore` keeps records in arrival order, O(1) per record:
all of them (``limit=None``), the *first* ``limit`` (cap, the default)
or the *last* ``limit`` (``ring=True``, evicting the oldest).
``dropped`` counts what the bound discarded.  With ``count_field`` set,
it also counts records per value of that tuple field over its lifetime
(``name_counts``, evicted ones included): the span sink counts spans by
name, while the journal counts nothing (a position is its own count).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterator, List, NamedTuple, Optional


class StoreSnapshot(NamedTuple):
    """A consistent point-in-time copy of a store's state."""

    records: List[Any]
    name_counts: Dict[Any, int]
    dropped: int


class BoundedStore:
    """Cap/ring record store; cheap enough to leave armed for a whole run."""

    __slots__ = ("limit", "ring", "dropped", "name_counts", "_count_field", "_records")

    def __init__(
        self, limit: Optional[int] = None, ring: bool = False, count_field: Optional[int] = None
    ):
        self.limit = limit
        self.ring = ring
        self.dropped = 0
        #: lifetime records seen per ``count_field`` value
        self.name_counts: Dict[Any, int] = {}
        self._count_field = count_field
        self._records: Deque[Any] = deque()

    @property
    def records(self) -> List[Any]:
        """Stored records, oldest first."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Any]:
        """Iterate the stored records, oldest first, without copying."""
        return iter(self._records)

    def at(self, index: int) -> Any:
        """The stored record at ``index`` (0-based, oldest first)."""
        return self._records[index]

    def add(self, record: Any) -> None:
        field = self._count_field
        if field is not None:
            counts = self.name_counts
            key = record[field]
            counts[key] = counts.get(key, 0) + 1
        limit = self.limit
        if limit is not None and len(self._records) >= limit:
            if not self.ring or limit <= 0:
                # cap mode drops the newest; a zero-capacity ring drops too
                self.dropped += 1
                return
            self._records.popleft()
            self.dropped += 1
        self._records.append(record)

    def drain_oldest(self, n: int) -> List[Any]:
        """Remove and return the ``n`` oldest stored records, in order.

        Unlike ring eviction this is *rotation*, not loss: the caller
        persists the drained records elsewhere (see
        :class:`~repro.sim.segments.SegmentStore`), so ``dropped`` is not
        incremented."""
        popleft = self._records.popleft
        return [popleft() for _ in range(min(n, len(self._records)))]

    def total(self, name: Any) -> int:
        """Lifetime records with one ``count_field`` value."""
        return self.name_counts.get(name, 0)

    def snapshot(self) -> StoreSnapshot:
        """Atomically copy (records, name_counts, dropped)."""
        return StoreSnapshot(list(self._records), dict(self.name_counts), self.dropped)

    def clear(self) -> None:
        self._records.clear()
        self.name_counts.clear()
        self.dropped = 0

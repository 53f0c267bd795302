"""Span records and the bounded span sink.

A :class:`Span` is one closed interval of simulated time on one *track*
(an actor's qualified name, or ``pedf.init`` for elaboration-time
events): a controller step, a filter firing, the Filter-C body inside
it, or a leaf framework call (push/pop/wait/...).  Spans are immutable
and carry only journal-derivable fields, so the live collector and the
replay-side deriver produce byte-identical streams.

:class:`SpanSink` is the bounded store: the
:class:`~repro.sim.store.BoundedStore` the replay journal also keeps its
event log in (cap keeps the first ``limit`` spans, ring the last), with
a lifetime per-name counter, so ``info spans`` can report totals even
after eviction and warn when ``dropped > 0``.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..sim.store import BoundedStore


class Span(NamedTuple):
    """One closed simulated-time interval on one track (a tuple: the
    span builder makes one per closed span, on the per-event path)."""

    track: str  # actor qualname, or "pedf.init" for elaboration
    name: str  # "firing", "work", "step", "run", "push", "pop", ...
    cat: str  # "firing" | "filterc" | "step" | "io" | "wait" | "control" | "init"
    begin: int  # simulated time
    end: int  # simulated time (>= begin)
    #: sorted (key, value) pairs — a tuple, not a dict, so spans are
    #: hashable and the export serialisation is deterministic
    args: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration(self) -> int:
        return self.end - self.begin

    def describe(self) -> str:
        extra = "".join(f" {k}={v}" for k, v in self.args)
        return f"[{self.begin}..{self.end}] {self.track} {self.name} ({self.cat}){extra}"


_NAME_FIELD = Span._fields.index("name")


class SpanSnapshot(NamedTuple):
    """Atomic copy of a sink's state (see StoreSnapshot)."""

    spans: List[Span]
    name_counts: Dict[str, int]
    dropped: int


class SpanSink(BoundedStore):
    """Bounded span store: a :class:`BoundedStore` counting spans by name."""

    __slots__ = ()

    def __init__(self, limit: Optional[int] = None, ring: bool = False):
        super().__init__(limit, ring, count_field=_NAME_FIELD)

    #: stored spans, in close order (a child closes before its parent)
    spans = BoundedStore.records

    def snapshot(self) -> SpanSnapshot:
        """Atomically copy (spans, name_counts, dropped)."""
        return SpanSnapshot(list(self._records), dict(self.name_counts), self.dropped)

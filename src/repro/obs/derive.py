"""Replay-side telemetry derivation: profile a recorded run post-hoc.

The ReplayJournal's event log plus its side tables hold every field of
the :class:`~repro.sim.replay.DataflowEvent` the span builder consumes,
and :meth:`~repro.sim.replay.ReplayJournal.iter_flow` rebuilds those
records.  Feeding them through a fresh builder therefore reconstructs
the *same* spans and metrics a live run would have collected,
byte-for-byte (the builder never looks at live-only data by design; see
:mod:`repro.obs.builder`).

The journal is streamed via ``iter_flow`` — a segment-rotating
journal is walked one decompressed segment at a time, so profiling an
arbitrarily long run stays within the in-memory window.  Only a journal
recorded with a lossy cap/ring bound can actually lose events; the
derivation is then a partial profile and says so via ``complete``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..sim.replay import ReplayJournal
from .builder import TelemetryBuilder
from .metrics import MetricsRegistry
from .spans import SpanSink


class DerivedTelemetry(NamedTuple):
    sink: SpanSink
    metrics: MetricsRegistry
    events_fed: int
    complete: bool  # False when the journal's event log dropped records


def derive_telemetry(
    journal: ReplayJournal,
    limit: Optional[int] = None,
    ring: bool = False,
) -> DerivedTelemetry:
    """Reconstruct spans + metrics from a recorded run's journal."""
    sink = SpanSink(limit=limit, ring=ring)
    metrics = MetricsRegistry()
    builder = TelemetryBuilder(sink, metrics)
    for _index, ev in journal.iter_flow():
        builder.feed(ev)
    return DerivedTelemetry(sink, metrics, builder.events_fed, journal.evicted_events == 0)

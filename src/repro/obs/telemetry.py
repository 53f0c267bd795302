"""The session-facing telemetry facade: arm, collect, query, export.

Arming does two things, both reversible:

- subscribes a single ``"*"`` listener on the framework event bus (so
  :meth:`FrameworkAPI.call` materialises events again — when telemetry
  is off and nothing else listens, the §V elision fast path keeps
  framework calls event-free);
- raises ``CAP_TELEMETRY`` in the debugger's hook-capability mask so
  interpreters count the cycles they flush.  The bit is ignored by tier
  selection, so the compiled fast tier keeps running compiled — the
  only new work on the hot path is one predicted branch per cost flush
  (one per ~batch_cycles statements).

The listener feeds each event's shared
:class:`~repro.sim.replay.DataflowEvent` projection (``event.flow``,
built once per event whichever tap reads it first) to one span builder.
That builder also inserts every closed span into the flight recorder's
ring, so flight needs neither a tap nor a builder of its own.

The span sink's bound is fixed for the life of the collected data: a
``trace on`` asking for a different bound than the existing sink's is
refused (``trace off`` then ``trace clear`` first), and ``trace clear``
re-arms with the bound it found.

Collection itself is live-only sugar: the same spans/metrics are
reproducible after the fact from a ReplayJournal via
:func:`repro.obs.derive.derive_telemetry`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import DataflowDebugError
from .builder import TelemetryBuilder
from .export import to_chrome_trace
from .metrics import MetricsRegistry
from .spans import SpanSink


def _describe_bound(limit: Optional[int], ring: bool) -> str:
    if limit is None:
        return "unbounded"
    return f"{'ring' if ring else 'cap'} limit={limit}"


class Telemetry:
    """Per-session telemetry state (off until :meth:`enable`)."""

    def __init__(self, session) -> None:
        self.session = session
        self.enabled = False
        self.sink: Optional[SpanSink] = None
        self.metrics: Optional[MetricsRegistry] = None
        self.builder: Optional[TelemetryBuilder] = None
        self._sub = None

    # ------------------------------------------------------------- arming

    @property
    def bound(self) -> Tuple[Optional[int], bool]:
        """``(limit, ring)`` of the current span sink (unbounded if none)."""
        sink = self.sink
        if sink is None or sink.limit is None:
            return (None, False)
        return (sink.limit, sink.ring)

    def enable(self, limit: Optional[int] = None, ring: bool = False) -> None:
        """Start collecting (idempotent).  ``limit``/``ring`` bound the
        span sink with the BoundedStore cap/ring policies; asking for a
        bound other than the existing sink's raises instead of silently
        keeping the old one."""
        requested = (limit, bool(ring)) if limit is not None else (None, False)
        if self.sink is not None and requested != self.bound:
            raise DataflowDebugError(
                f"telemetry already holds a span sink that is "
                f"{_describe_bound(*self.bound)}; it cannot become "
                f"{_describe_bound(*requested)} — use `trace off` then "
                f"`trace clear` to drop it first"
            )
        if self.enabled:
            return
        if self.builder is None:
            self.sink = SpanSink(*requested)
            self.metrics = MetricsRegistry()
            self.builder = TelemetryBuilder(
                self.sink, self.metrics, ring=self.session.flight.sink
            )
        dbg = self.session.dbg
        self._sub = dbg.runtime.bus.subscribe("*", self._on_event)
        dbg.telemetry_armed = True
        dbg._recompute_capabilities()
        self.enabled = True

    def disable(self) -> None:
        """Stop collecting; the data gathered so far stays queryable."""
        if not self.enabled:
            return
        if self._sub is not None:
            self._sub.unsubscribe()
            self._sub = None
        dbg = self.session.dbg
        dbg.telemetry_armed = False
        dbg._recompute_capabilities()
        self.enabled = False

    def clear(self) -> None:
        """Drop collected data.  While collecting, a fresh sink with the
        same bound re-arms at once; otherwise the next :meth:`enable`
        chooses the bound."""
        was_on = self.enabled
        limit, ring = self.bound
        self.disable()
        self.sink = None
        self.metrics = None
        self.builder = None
        if was_on:
            self.enable(limit=limit, ring=ring)

    def _on_event(self, event):
        self.builder.feed(event.flow)
        return None

    # ------------------------------------------------------------ queries

    def drop_warning(self) -> Optional[str]:
        """One-line data-loss warning, or None when nothing was dropped."""
        sink = self.sink
        if sink is not None and sink.dropped > 0:
            kept = len(sink)
            policy = "ring evicted oldest" if sink.ring else "cap dropped newest"
            return (
                f"warning: span sink dropped {sink.dropped} span(s) "
                f"({policy}; {kept} kept) — data below is incomplete"
            )
        return None

    def status_lines(self) -> List[str]:
        lines = [f"telemetry: {'on' if self.enabled else 'off'}"]
        sink = self.sink
        if sink is None:
            lines.append("  (nothing collected; use `trace on`)")
            return lines
        bound = _describe_bound(*self.bound)
        lines.append(f"  spans: {len(sink)} stored ({bound}), {sink.dropped} dropped")
        if self.builder is not None:
            lines.append(f"  events fed: {self.builder.events_fed}")
        warn = self.drop_warning()
        if warn:
            lines.append(f"  {warn}")
        return lines

    def interp_cycles(self) -> Dict[str, int]:
        """Per-actor ``cycles_flushed`` from the live interpreters — the
        ground truth the span builder's busy times are checked against."""
        cycles: Dict[str, int] = {}
        for actor in self.session.dbg.runtime.all_actors():
            interp = getattr(actor, "interp", None)
            if interp is not None:
                cycles[actor.qualname] = interp.cycles_flushed
        return cycles

    def opcode_cycles(self) -> Dict[str, int]:
        """Aggregated per-opcode cycle counts from every live bytecode-tier
        interpreter, keyed by mnemonic.  Counted only while telemetry (or
        the profiler) is armed: either bit flips the VM into its
        instrumented prelude, which attributes each instruction's ISA
        cost to its opcode."""
        from ..cminus.vm.telemetry import aggregate_opcode_cycles

        interps = [
            interp
            for actor in self.session.dbg.runtime.all_actors()
            if (interp := getattr(actor, "interp", None)) is not None
        ]
        return aggregate_opcode_cycles(interps)

    # ------------------------------------------------------------- export

    def export_json(self, process_name: str = "repro") -> str:
        if self.sink is None:
            raise DataflowDebugError("no telemetry collected (use `trace on` first)")
        return to_chrome_trace(self.sink.snapshot().spans, process_name)

    def export_file(
        self, path: str, process_name: str = "repro", force: bool = False
    ) -> "tuple[int, int]":
        """Write the Chrome trace JSON to ``path``, creating parent
        directories and refusing to silently overwrite unless ``force``.
        Returns ``(span count, bytes written)``."""
        from .export import write_artifact

        text = self.export_json(process_name)
        nbytes = write_artifact(path, text, force=force)
        return len(self.sink), nbytes

"""Always-on bounded flight recorder: the last moments, always at hand.

Inspired by inline hardware trace buffers (and avionics flight
recorders): a small ring that is *always armed* so the moment something
goes wrong — an RV property violation, a program error, a deadlock —
a self-contained post-mortem bundle of the recent past can be written
without anyone having thought to enable tracing first.

Zero-cost discipline (§V) still holds: the recorder itself allocates a
few bounded buffers and one stop callback.  Span capture shares the
telemetry span pass when telemetry is armed: the telemetry builder
inserts each span it closes into this ring too (one extra bounded ring
insert per closed span, so at most one per event — no second bus
subscription, no second span builder, no effect on the telemetry-off
fast path, which stays event-free).  Metrics are the telemetry
registry itself, read at stops for the per-stop deltas; journal/shard
state is referenced, not copied.  ``trace clear`` leaves the ring alone
and restarts the delta baseline from the fresh registry, so no delta
goes negative.  When telemetry never ran, the bundle says so and still
carries the stop log, journal tail refs and shard/channel state —
always-on means "armed", not "observing for free".

The bundle is deterministic (simulated time only, sorted keys) and
self-contained JSON: stop history, recent spans, metrics, per-stop
counter deltas, journal tail references, and cross-shard channel state
when the run is sharded.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Optional

from ..dbg.stop import StopEvent, StopKind
from .metrics import MetricsRegistry
from .spans import SpanSink

#: stop kinds that trigger an automatic post-mortem dump
AUTO_DUMP_KINDS = (StopKind.VIOLATION, StopKind.ERROR, StopKind.DEADLOCK)

SPAN_LIMIT = 256
DELTA_LIMIT = 64
STOP_LIMIT = 32


class FlightRecorder:
    """Per-session flight recorder; constructed armed, never off."""

    #: where automatic dumps land — a *class* attribute so embedders
    #: (and the test suite) can redirect every recorder at once;
    #: assigning on an instance still overrides per-session
    dump_dir = "."

    def __init__(
        self,
        session,
        span_limit: int = SPAN_LIMIT,
        delta_limit: int = DELTA_LIMIT,
    ) -> None:
        self.session = session
        #: the span ring the telemetry builder also inserts into
        self.sink = SpanSink(limit=span_limit, ring=True)
        #: per-stop counter deltas, oldest evicted first
        self.deltas: deque = deque(maxlen=delta_limit)
        self.stops: deque = deque(maxlen=STOP_LIMIT)
        self._last_counts: Dict[str, tuple] = {}
        #: the registry ``_last_counts`` was read from
        self._counted: Optional[MetricsRegistry] = None
        self.auto_dump = True
        self.last_dump: Optional[str] = None
        self.dumps_written = 0
        self._notice: Optional[str] = None
        #: hooks fired after every dump with ``(path, reason)`` — the
        #: serve daemon pushes these to subscribed wire clients; hook
        #: exceptions are swallowed (observers never break the recorder)
        self.on_dump: List[Any] = []
        session.dbg.stop_callbacks.append(self._on_stop)

    # ------------------------------------------------------------ capture

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The telemetry metrics registry (None until telemetry ran)."""
        return self.session.telemetry.metrics

    @property
    def telemetry_observed(self) -> bool:
        """True once any telemetry span or event reached the recorder."""
        builder = self.session.telemetry.builder
        return bool(self.sink.name_counts) or (builder is not None and builder.events_fed > 0)

    def _counter_snapshot(self) -> Dict[str, tuple]:
        metrics = self.metrics
        if metrics is not self._counted:
            # `trace clear` swapped in a fresh registry: deltas restart
            # from zero instead of going negative against the old counts
            self._counted = metrics
            self._last_counts = {}
        if metrics is None:
            return {}
        return {
            name: (m.firings, m.steps, m.produced, m.consumed, m.busy, m.blocked)
            for name, m in metrics.actors.items()
        }

    def _on_stop(self, ev: StopEvent) -> None:
        self.stops.append(
            {
                "time": ev.time,
                "kind": ev.kind.value,
                "actor": ev.actor or "",
                "message": ev.message,
            }
        )
        now = self._counter_snapshot()
        changed: Dict[str, Dict[str, int]] = {}
        fields = ("firings", "steps", "produced", "consumed", "busy", "blocked")
        for name, counts in now.items():
            before = self._last_counts.get(name, (0,) * len(fields))
            diff = {
                field: after - prev
                for field, after, prev in zip(fields, counts, before)
                if after != prev
            }
            if diff:
                changed[name] = diff
        self._last_counts = now
        self.deltas.append(
            {"time": ev.time, "kind": ev.kind.value, "actors": changed}
        )
        if self.auto_dump and ev.kind in AUTO_DUMP_KINDS:
            try:
                path = self.dump(reason=f"auto:{ev.kind.value}")
            except OSError as exc:  # pragma: no cover - disk trouble
                self._notice = f"flight recorder: dump failed: {exc}"
            else:
                self._notice = f"flight recorder: post-mortem bundle written to {path}"

    def take_notice(self) -> Optional[str]:
        """One-shot CLI notice about an automatic dump (rendered by the
        stop banner, so library code never prints)."""
        notice, self._notice = self._notice, None
        return notice

    # ------------------------------------------------------------- bundle

    def _journal_refs(self) -> Optional[Dict[str, Any]]:
        master = self.session.replay.master
        if master is None:
            return None
        lo, hi = master.stored_range()
        return {
            "total_events": master.total_events,
            "stored_range": [lo, hi],
            "evicted_events": master.evicted_events,
        }

    def _shard_state(self) -> Optional[List[str]]:
        sharding = self.session.sharding
        if sharding is None:
            return None
        lines = list(sharding.info_lines())
        # bounded per-channel forward logs: the last few cross-shard
        # tokens in FIFO-ordinal terms, straight from the channels
        for stats in sharding.engine.channel_stats():
            recent = ",".join(f"#{n}@t{t}" for n, t in stats["recent"])
            lines.append(
                f"channel {stats['link']} [{stats['route']}]: "
                f"forwarded={stats['forwarded']} high_water={stats['high_water']} "
                f"recent=[{recent}]"
            )
        return lines

    def _token_state(self) -> Optional[List[str]]:
        records = getattr(self.session, "records", None)
        if records is None or not records.buffers:
            return None
        return records.status_lines()

    def bundle(self, reason: str) -> Dict[str, Any]:
        """The self-contained post-mortem dict (JSON-serialisable,
        deterministic: simulated time only, no wall clock)."""
        snapshot = self.sink.snapshot()
        metrics = self.metrics
        return {
            "flight": {
                "version": 1,
                "reason": reason,
                "spans_stored": len(snapshot.spans),
                "spans_evicted": self.sink.dropped,
                "telemetry_observed": self.telemetry_observed,
            },
            "stops": list(self.stops),
            "spans": [s.describe() for s in snapshot.spans],
            "metrics": metrics.render() if metrics is not None and metrics.actors else [],
            "deltas": list(self.deltas),
            "journal": self._journal_refs(),
            "sharding": self._shard_state(),
            "tokens": self._token_state(),
            "config": {
                "time": metrics.last_time if metrics is not None else 0,
                "interp_tier": getattr(
                    self.session.dbg.runtime.config, "interp_tier", "auto"
                ),
            },
        }

    def dump(
        self,
        path: Optional[str] = None,
        reason: str = "manual",
        force: bool = True,
    ) -> str:
        """Write the bundle; returns the path.  Auto-dumps pick a
        deterministic name from the stop kind and simulated time."""
        from .export import write_artifact

        if path is None:
            stamp = self.stops[-1] if self.stops else {"time": 0, "kind": "manual"}
            name = f"flight_{stamp['kind'].replace(' ', '_')}_t{stamp['time']}.json"
            base = self.dump_dir.rstrip("/")
            path = f"{base}/{name}" if base not in ("", ".") else name
        text = json.dumps(self.bundle(reason), sort_keys=True, indent=2) + "\n"
        write_artifact(path, text, force=force)
        self.last_dump = path
        self.dumps_written += 1
        for hook in list(self.on_dump):
            try:
                hook(path, reason)
            except Exception:
                pass
        return path

    # ------------------------------------------------------------- status

    def status_lines(self) -> List[str]:
        snapshot = self.sink.snapshot()
        lines = [
            "flight recorder: armed (always on)",
            f"  spans: {len(snapshot.spans)} in ring "
            f"(limit {self.sink.limit}), {self.sink.dropped} evicted",
            f"  stops: {len(self.stops)} remembered, "
            f"{len(self.deltas)} delta snapshot(s)",
            f"  auto-dump: {'on' if self.auto_dump else 'off'} "
            f"({', '.join(k.value for k in AUTO_DUMP_KINDS)})",
        ]
        if not self.telemetry_observed:
            lines.append(
                "  (no telemetry observed — enable `trace on` for span capture)"
            )
        if self.last_dump:
            lines.append(f"  last dump: {self.last_dump} ({self.dumps_written} written)")
        return lines

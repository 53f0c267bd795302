"""Daemon-side session lifecycle: handles, quotas, registry, reaping.

A wire session is one :class:`~repro.core.session.DataflowSession` (or a
:class:`~repro.core.shards.ShardedRun`) plus the bookkeeping a server
needs around it:

- **serialisation** — all blocking work for a session runs on its own
  single-thread executor, so concurrent connections to one session are
  ordered and two sessions never contend;
- **quotas** — max framework events, max journal bytes, cumulative
  command wall-clock; exceeding one yields a *structured* quota error
  (code 1002 with the quota name and observed value), and run-control
  commands are refused until the session is destroyed.  The wall-clock
  budget is enforced *mid-command* by a watchdog that uses the async-safe
  pause path (`Debugger.request_pause`), so a runaway ``continue`` stops
  at the next dispatch boundary instead of holding its worker forever;
- **event fan-out** — stops (which include RV violations) and flight-
  recorder dumps are pushed to every subscribed connection;
- **isolation + reaping** — one session's failure never unwinds the
  registry, and sessions idle past the deadline are closed by the
  daemon's reaper.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..errors import ReproError
from ..sim.replay import DataflowEvent
from .builders import build_program_cli, build_sharded_cli

#: resident bytes of one journal record: every record is a
#: :class:`~repro.sim.replay.DataflowEvent` of the same fixed arity
EVENT_BYTES = sys.getsizeof(DataflowEvent(0, "", "", "", None))

#: first words of commands that advance execution (the ones a quota-
#: exhausted session refuses; inspection stays available for post-mortem)
RUN_CONTROL = frozenset(
    {
        "run", "continue", "step", "next", "stepi", "finish", "until",
        "step_both", "replay", "reverse-continue",
    }
)


class QuotaExceeded(ReproError):
    """A per-session quota is exhausted.  Carries structured fields so
    the wire error names the quota instead of burying it in prose."""

    def __init__(self, quota: str, limit: float, used: float):
        super().__init__(
            f"session quota exceeded: {quota} (used {used:.0f} of {limit:.0f})"
        )
        self.quota = quota
        self.limit = limit
        self.used = used

    def to_data(self) -> Dict[str, Any]:
        return {"quota": self.quota, "limit": self.limit, "used": self.used}


@dataclass
class SessionQuota:
    """Per-session resource bounds; ``None`` means unlimited."""

    max_events: Optional[int] = None  # framework events processed
    max_journal_bytes: Optional[int] = None  # journal footprint estimate
    max_wall_ms: Optional[float] = None  # cumulative command wall-clock

    @classmethod
    def from_params(cls, params: Optional[Dict[str, Any]]) -> "SessionQuota":
        if not params:
            return cls()
        q = cls()
        for key in ("max_events", "max_journal_bytes", "max_wall_ms"):
            value = params.get(key)
            if value is not None:
                if not isinstance(value, (int, float)) or value <= 0:
                    raise ReproError(f"quota {key} must be a positive number")
                setattr(q, key, value)
        return q

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_events": self.max_events,
            "max_journal_bytes": self.max_journal_bytes,
            "max_wall_ms": self.max_wall_ms,
        }


def journal_bytes(session) -> int:
    """The session's journal footprint: exact compressed bytes for
    rotated segments, plus the tuple size of each resident record (the
    fields are mostly shared strings, not charged; the quota is a guard
    rail, not an invoice)."""
    replay = getattr(session, "replay", None)
    master = replay.master if replay is not None else None
    if master is None:
        return 0
    total = len(master.events) * EVENT_BYTES
    segments = getattr(master, "segments", None)
    if segments is not None:
        total += segments.total_bytes
    return total


class SessionHandle:
    """One hosted session: machine + service + executor + subscribers."""

    def __init__(
        self,
        session_id: str,
        program: str,
        cli,
        quota: SessionQuota,
        sharded_run=None,
        name: Optional[str] = None,
    ):
        self.id = session_id
        self.name = name or session_id
        self.program = program
        self.cli = cli
        self.quota = quota
        self.sharded = sharded_run
        self.created = time.monotonic()
        self.last_used = self.created
        self.attached = 0
        self.closed = False
        #: set when a quota trips; names the quota (structured errors)
        self.quota_exhausted: Optional[QuotaExceeded] = None
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"session-{session_id}"
        )
        self._subs: Dict[int, Callable[[Dict[str, Any]], None]] = {}
        self._subs_lock = threading.Lock()
        self._sub_ids = itertools.count(1)
        self.events_pushed = 0
        # stops (breakpoints, RV violations, deadlocks, replay stops,
        # barrier pauses) flow through the service's adoption-surviving
        # subscription; flight dumps through the recorder's hook
        self.service.subscribe(self._on_stop)
        flight = getattr(self.session, "flight", None)
        if flight is not None and hasattr(flight, "on_dump"):
            flight.on_dump.append(self._on_flight_dump)

    # ------------------------------------------------------------- liveness

    @property
    def service(self):
        return self.cli.service

    @property
    def session(self):
        return self.cli.dataflow_handler.session

    def touch(self) -> None:
        self.last_used = time.monotonic()

    def idle_seconds(self) -> float:
        return time.monotonic() - self.last_used

    # ------------------------------------------------------------- fan-out

    def subscribe(self, fn: Callable[[Dict[str, Any]], None]) -> int:
        with self._subs_lock:
            handle = next(self._sub_ids)
            self._subs[handle] = fn
        return handle

    def unsubscribe(self, handle: int) -> None:
        with self._subs_lock:
            self._subs.pop(handle, None)

    def _publish(self, event: Dict[str, Any]) -> None:
        with self._subs_lock:
            subs = list(self._subs.values())
        for fn in subs:
            try:
                fn(event)
                self.events_pushed += 1
            except Exception:
                pass

    def _on_stop(self, ev) -> None:
        from ..core.service import stop_to_dict

        kind = "violation" if ev.kind.value == "violation" else "stop"
        self._publish({"type": kind, "data": stop_to_dict(ev)})

    def _on_flight_dump(self, path: str, reason: str) -> None:
        self._publish({"type": "flight-dump", "data": {"path": path, "reason": reason}})

    # -------------------------------------------------------------- quotas

    def _check_quota(self, command: Optional[str] = None) -> None:
        """Raise :class:`QuotaExceeded` if a bound is spent.  Once a
        quota trips, run-control commands stay refused (inspection and
        detach still work: the post-mortem must remain reachable)."""
        if self.quota_exhausted is not None:
            word = command.split(None, 1)[0] if command else None
            if word is None or word in RUN_CONTROL:
                raise self.quota_exhausted
            return
        q = self.quota
        svc = self.service
        if q.max_wall_ms is not None and svc.wall_ms >= q.max_wall_ms:
            self.quota_exhausted = QuotaExceeded("max_wall_ms", q.max_wall_ms, svc.wall_ms)
            raise self.quota_exhausted
        session = self.session
        if q.max_events is not None:
            used = session.capture.events_processed
            if used >= q.max_events:
                self.quota_exhausted = QuotaExceeded("max_events", q.max_events, used)
                raise self.quota_exhausted
        if q.max_journal_bytes is not None:
            used = journal_bytes(session)
            if used >= q.max_journal_bytes:
                self.quota_exhausted = QuotaExceeded(
                    "max_journal_bytes", q.max_journal_bytes, used
                )
                raise self.quota_exhausted

    # ------------------------------------------------------------ blocking ops
    # (every method below runs on the session's executor thread)

    def execute(self, line: str):
        """One command with quota envelope: pre-check, wall-clock
        watchdog armed across the command, post-check so the *next* call
        reports exhaustion even when this one slipped under the wire."""
        self.touch()
        self._check_quota(line.strip())
        timer = None
        if self.quota.max_wall_ms is not None:
            remaining = (self.quota.max_wall_ms - self.service.wall_ms) / 1000.0
            # the watchdog rides the async-safe pause path: a runaway
            # `continue` parks at the next dispatch boundary
            timer = threading.Timer(max(remaining, 0.001), self.service.interrupt)
            timer.daemon = True
            timer.start()
        try:
            result = self.service.execute(line, isolate=True)
        finally:
            if timer is not None:
                timer.cancel()
        try:
            self._check_quota()
        except QuotaExceeded:
            pass  # recorded in quota_exhausted; surfaced on the next call
        return result

    def run_sharded(self):
        """Advance the session's ShardedRun to the next stop (every shard
        parks at a consistent barrier).  Returns the coordinator-shard
        stop event dict plus fabric info."""
        from ..core.service import stop_to_dict

        self.touch()
        self._check_quota("run")
        if self.sharded is None:
            raise ReproError("session is not sharded (use execute)")
        run = self.sharded
        stop = run.run() if not run._loaded else run.cont()
        data: Dict[str, Any] = {"kind": stop.kind, "shard": stop.shard}
        if stop.event is not None:
            data["event"] = stop_to_dict(stop.event)
        return data

    def interrupt(self) -> None:
        """Async-safe: runs on the *caller's* thread, not the executor —
        that is the point (the executor is busy inside `continue`)."""
        self.service.interrupt()

    def metrics_text(self) -> str:
        """Per-session OpenMetrics exposition: the machine's telemetry
        snapshot plus the serve-layer gauges for this session."""
        from ..obs.openmetrics import to_openmetrics

        session = self.session
        registry = getattr(session.telemetry, "metrics", None)
        # telemetry may be off (the zero-cost default): the scrape still
        # succeeds with the serve-layer gauges alone
        text = to_openmetrics(registry) if registry is not None else "# EOF\n"
        extra = [
            "# TYPE repro_serve_session_commands counter",
            "# HELP repro_serve_session_commands Commands executed by this session.",
            f'repro_serve_session_commands_total{{session="{self.id}"}} {self.service.commands_run}',
            "# TYPE repro_serve_session_errors counter",
            "# HELP repro_serve_session_errors Commands that failed.",
            f'repro_serve_session_errors_total{{session="{self.id}"}} {self.service.errors}',
            "# TYPE repro_serve_session_events_pushed counter",
            "# HELP repro_serve_session_events_pushed Events fanned out to subscribers.",
            f'repro_serve_session_events_pushed_total{{session="{self.id}"}} {self.events_pushed}',
            "# TYPE repro_serve_session_wall_ms gauge",
            "# HELP repro_serve_session_wall_ms Cumulative command wall-clock (ms).",
            f'repro_serve_session_wall_ms{{session="{self.id}"}} {self.service.wall_ms:.3f}',
        ]
        # splice before the terminating EOF marker (which may be the
        # whole exposition when telemetry never ran)
        base = text.rstrip("\n").rsplit("\n", 1)
        if base[-1] == "# EOF":
            prefix = base[0] + "\n" if len(base) == 2 else ""
            return prefix + "\n".join(extra) + "\n# EOF\n"
        return text + "\n".join(extra) + "\n# EOF\n"

    def flight_bundle(self) -> Dict[str, Any]:
        self.touch()
        flight = getattr(self.session, "flight", None)
        if flight is None:
            raise ReproError("session has no flight recorder")
        return flight.bundle(reason="rpc")

    def describe(self) -> Dict[str, Any]:
        svc = self.service
        return {
            "id": self.id,
            "name": self.name,
            "program": self.program,
            "sharded": self.sharded is not None,
            "attached": self.attached,
            "idle_s": round(self.idle_seconds(), 3),
            "commands_run": svc.commands_run,
            "errors": svc.errors,
            "wall_ms": round(svc.wall_ms, 3),
            "events_processed": self.session.capture.events_processed,
            "journal_bytes": journal_bytes(self.session),
            "quota": self.quota.to_dict(),
            "quota_exhausted": (
                self.quota_exhausted.quota if self.quota_exhausted else None
            ),
        }

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._publish({"type": "closed", "data": {"session": self.id}})
        with self._subs_lock:
            self._subs.clear()
        self.executor.shutdown(wait=False)


class SessionRegistry:
    """All hosted sessions; thread-safe (RPC handlers + reaper touch it)."""

    def __init__(self, max_sessions: int = 256):
        self._lock = threading.Lock()
        self._sessions: Dict[str, SessionHandle] = {}
        self._ids = itertools.count(1)
        self.max_sessions = max_sessions
        self.created_total = 0
        self.reaped_total = 0

    def create(
        self,
        program: str,
        bug: Optional[str] = None,
        tier: str = "auto",
        values: Optional[List[int]] = None,
        sharded: bool = False,
        shards: int = 2,
        quota: Optional[SessionQuota] = None,
        name: Optional[str] = None,
    ) -> SessionHandle:
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                raise ReproError(
                    f"session limit reached ({self.max_sessions}); destroy one first"
                )
            session_id = f"s{next(self._ids)}"
        # machine construction happens outside the lock: builders run
        # framework elaboration and must not serialise sibling creates
        sharded_run = None
        if sharded:
            cli, sharded_run = build_sharded_cli(program, n_shards=shards, tier=tier,
                                                 values=values)
        else:
            cli, _sink = build_program_cli(program, bug=bug, tier=tier, values=values)
        handle = SessionHandle(
            session_id,
            program,
            cli,
            quota or SessionQuota(),
            sharded_run=sharded_run,
            name=name,
        )
        with self._lock:
            self._sessions[session_id] = handle
            self.created_total += 1
        return handle

    def get(self, session_id: str) -> SessionHandle:
        with self._lock:
            handle = self._sessions.get(session_id)
        if handle is None or handle.closed:
            raise KeyError(session_id)
        return handle

    def list(self) -> List[Dict[str, Any]]:
        with self._lock:
            handles = list(self._sessions.values())
        return [h.describe() for h in handles]

    def destroy(self, session_id: str) -> None:
        with self._lock:
            handle = self._sessions.pop(session_id, None)
        if handle is None:
            raise KeyError(session_id)
        handle.close()

    def reap_idle(self, max_idle_s: float) -> List[str]:
        """Close sessions nobody touched for ``max_idle_s``; returns the
        reaped ids.  Attached sessions are exempt — idleness is about
        abandonment, not contemplation."""
        with self._lock:
            stale = [
                h
                for h in self._sessions.values()
                if h.attached == 0 and h.idle_seconds() > max_idle_s
            ]
            for h in stale:
                self._sessions.pop(h.id, None)
                self.reaped_total += 1
        for h in stale:
            h.close()
        return [h.id for h in stale]

    def close_all(self) -> None:
        with self._lock:
            handles = list(self._sessions.values())
            self._sessions.clear()
        for h in handles:
            h.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

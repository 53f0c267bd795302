"""Normalised monitor input: the shared :class:`DataflowEvent` record.

Byte-identity between live verdicts and replay-derived verdicts is
achieved *by construction*, exactly like the telemetry subsystem: every
monitor consumes :class:`~repro.sim.replay.DataflowEvent` tuples, the
one projection of a framework event that the journal, telemetry and RV
all read.  It is restricted to what a
:class:`~repro.sim.replay.ReplayJournal` can recover — simulated time,
phase, symbol, acting actor, the token sequence number (data-exchange
exits), the link name (push/pop, from the journal's per-event side
table) and the scheduling target (``ACTOR_START``/``ACTOR_SYNC``, same
side table).  Live, a bus event's record is
:attr:`~repro.pedf.api.FrameworkEvent.flow` (built at most once per
event); in replay, :meth:`~repro.sim.replay.ReplayJournal.iter_flow`.
Nothing live-only (argument dicts, object identities, wall-clock
anything) may influence a verdict.
"""

from __future__ import annotations

from ..sim.replay import DataflowEvent

#: the monitors' input record (kept as a name for existing callers)
RvEvent = DataflowEvent

__all__ = ["DataflowEvent", "RvEvent"]

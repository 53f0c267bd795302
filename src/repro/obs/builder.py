"""The span builder: normalised framework events -> spans + metrics.

Byte-identity between live collection and replay derivation is achieved
*by construction*: both feed the same :class:`TelemetryBuilder` with
:class:`~repro.sim.replay.DataflowEvent` tuples — live, the bus event's
shared :attr:`~repro.pedf.api.FrameworkEvent.flow` projection; in
replay, :meth:`~repro.sim.replay.ReplayJournal.iter_flow`.  The record
holds only what a journal stores (simulated time, phase, symbol, acting
actor, token seq, link and scheduling target), and the builder reads a
link only together with a token seq (data-exchange exits), so nothing
live-only (argument dicts, Python object identities, wall-clock
anything) may influence the output.

Span hierarchy per track (one track per actor; elaboration events with
no actor land on ``pedf.init``)::

    step (controller)                  firing (filter)
    └── run   [filterc]                └── work  [filterc]
        ├── actor_start [control]          ├── pop  [io]
        ├── wait_actor_sync [wait]         └── push [io]
        └── ...

- ``WORK_ENTER`` entry opens *firing*; its exit opens *work* (the
  Filter-C body).  ``WORK_EXIT`` entry closes *work*, its exit closes
  *firing*.  ``STEP_BEGIN``/``STEP_END`` do the same with *step*/*run*.
- Every other symbol is a leaf span (entry opens, exit closes).
- Closing a leaf adds its duration to the enclosing span's child total;
  closing a ``filterc`` span splits its duration into **busy** (own
  time: exactly the interpreter-charged statement/call cycles, because
  every other sim-time advance inside a WORK body happens inside a
  nested framework call) and **blocked** (the child total).

The builder is tolerant of a mid-run start: an exit with no matching
open is dropped rather than corrupting the stack.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..pedf.api import (
    SYM_POP,
    SYM_PUSH,
    SYM_STEP_BEGIN,
    SYM_STEP_END,
    SYM_WORK_ENTER,
    SYM_WORK_EXIT,
)
from ..sim.replay import DataflowEvent
from .metrics import MetricsRegistry
from .spans import Span, SpanSink

#: the builder's input record (kept as a name for existing callers)
TelemetryEvent = DataflowEvent

#: track for elaboration-time events that carry no acting actor
INIT_TRACK = "pedf.init"

_SYMBOL_PREFIX = "pedf_rt_"

#: leaf-span category by symbol suffix (after stripping ``pedf_rt_``)
_LEAF_CATS = {
    "push": "io",
    "pop": "io",
    "wait_actor_init": "wait",
    "wait_actor_sync": "wait",
    "actor_start": "control",
    "actor_sync": "control",
    "set_pred": "control",
    "register_program": "init",
    "register_module": "init",
    "register_actor": "init",
    "register_iface": "init",
    "bind": "init",
}


def _leaf(symbol: str) -> Tuple[str, str]:
    """(span name, category) of a leaf symbol."""
    name = symbol[len(_SYMBOL_PREFIX):] if symbol.startswith(_SYMBOL_PREFIX) else symbol
    return name, _LEAF_CATS.get(name, "other")


class _Open:
    """A span under construction (mutable; frozen into Span on close)."""

    __slots__ = ("name", "cat", "begin", "args", "child_total")

    def __init__(self, name: str, cat: str, begin: int, args: Tuple[Tuple[str, Any], ...]):
        self.name = name
        self.cat = cat
        self.begin = begin
        self.args = args
        self.child_total = 0


class TelemetryBuilder:
    """Feeds :class:`~repro.sim.replay.DataflowEvent` tuples; emits spans,
    updates metrics.

    Each closed span goes to ``sink`` and, when given, to ``ring`` too —
    the flight recorder's bounded ring shares this one span pass instead
    of running a builder of its own."""

    def __init__(self, sink: SpanSink, metrics: MetricsRegistry,
                 ring: Optional[SpanSink] = None):
        self.sink = sink
        self.ring = ring
        self.metrics = metrics
        self.events_fed = 0
        self._stacks: Dict[str, List[_Open]] = {}
        self._leaves: Dict[str, Tuple[str, str]] = {}

    # ------------------------------------------------------------ plumbing

    def _open(self, track: str, name: str, cat: str, begin: int,
              args: Tuple[Tuple[str, Any], ...] = ()) -> None:
        stack = self._stacks.get(track)
        if stack is None:
            stack = self._stacks[track] = []
        stack.append(_Open(name, cat, begin, args))

    def _close(self, track: str, name: str, end: int) -> Optional[Span]:
        """Close the top span if it matches ``name``; None otherwise
        (tolerates telemetry being enabled mid-run)."""
        stack = self._stacks.get(track)
        if not stack or stack[-1].name != name:
            return None
        top = stack.pop()
        span = Span(track, name, top.cat, top.begin, end, top.args)
        duration = end - top.begin
        if stack:
            stack[-1].child_total += duration
        if top.cat == "filterc":
            m = self.metrics.actor(track)
            m.busy += duration - top.child_total
            m.blocked += top.child_total
        self.sink.add(span)
        if self.ring is not None:
            self.ring.add(span)
        return span

    def open_depth(self, track: str) -> int:
        stack = self._stacks.get(track)
        return len(stack) if stack else 0

    # ---------------------------------------------------------------- feed

    def feed(self, te: DataflowEvent) -> None:
        self.events_fed += 1
        metrics = self.metrics
        t = te.time
        metrics.note_time(t)
        track = te.actor or INIT_TRACK
        symbol = te.symbol
        entry = te.phase == "entry"
        if symbol == SYM_WORK_ENTER:
            if entry:
                m = metrics.actor(track)
                m.firings += 1
                self._open(track, "firing", "firing", t, (("invocation", m.firings),))
            else:
                self._open(track, "work", "filterc", t)
        elif symbol == SYM_WORK_EXIT:
            self._close(track, "work" if entry else "firing", t)
        elif symbol == SYM_STEP_BEGIN:
            if entry:
                m = metrics.actor(track)
                m.steps += 1
                self._open(track, "step", "step", t, (("step", m.steps),))
            else:
                self._open(track, "run", "filterc", t)
        elif symbol == SYM_STEP_END:
            self._close(track, "run" if entry else "step", t)
        else:
            leaf = self._leaves.get(symbol)
            if leaf is None:
                leaf = self._leaves[symbol] = _leaf(symbol)
            name = leaf[0]
            if entry:
                self._open(track, name, leaf[1], t)
                return
            # a link is attributed only together with a token seq (the
            # data-exchange exits a journal can fully recover)
            seq = te.seq
            link = te.link if seq is not None else None
            if seq is not None:
                stack = self._stacks.get(track)
                if stack and stack[-1].name == name:
                    stack[-1].args = (("link", link or "?"), ("seq", seq))
            span = self._close(track, name, t)
            if symbol == SYM_PUSH:
                if te.actor:
                    metrics.actor(track).produced += 1
                if link:
                    metrics.link(link).on_push(t, span.duration if span is not None else 0)
            elif symbol == SYM_POP:
                if te.actor:
                    metrics.actor(track).consumed += 1
                if link:
                    metrics.link(link).on_pop(t, span.duration if span is not None else 0)

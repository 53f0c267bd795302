"""Replay-side re-verification: judge a recorded run post-hoc.

The ReplayJournal's event log stores ``(time, actor, "symbol:phase",
seq)`` per framework event; its side tables recover the link of every
push/pop event and the target filter of every scheduling event — exactly
the :class:`~repro.sim.replay.DataflowEvent` fields the monitors
consume, rebuilt by :meth:`~repro.sim.replay.ReplayJournal.iter_flow`.
Feeding the journal through freshly compiled monitors therefore
reproduces the *same* verdicts a live run would have raised, byte for
byte; journaled deadlock stops re-trigger the wait-for analysis at the
same event position.

This is how a violation found in a long live run is re-localized: derive
the verdict from the journal, then ``replay to event <verdict.index>``
lands the rebuilt machine on the exact violating event.
"""

from __future__ import annotations

from typing import List, Sequence

from ..sim.replay import ReplayJournal
from .compile import GraphView, compile_property
from .monitors import Monitor, Verdict, route_monitors


def run_monitors(journal: ReplayJournal, monitors: Sequence[Monitor]) -> List[Verdict]:
    """Drive compiled monitors over a journal, replaying deadlock stops
    at their recorded positions.  Each event goes only to the monitors
    that declare its symbol (a tripped monitor ignores the rest anyway).
    Returns verdicts in stream order."""
    verdicts: List[Verdict] = []
    stops = sorted(
        (s for s in journal.stops if s.kind == "deadlock"), key=lambda s: s.index
    )
    routes = route_monitors(monitors)
    stop_i = 0
    position = 0
    # iter_flow streams a segment-rotating journal one decompressed
    # segment at a time: an arbitrarily long run is never materialised
    for position, ev in journal.iter_flow():
        for mon in routes.get(ev.symbol, ()):
            verdict = mon.feed(ev, position)
            if verdict is not None:
                verdicts.append(verdict)
        while stop_i < len(stops) and stops[stop_i].index <= position:
            verdicts.extend(_eval_stop(monitors, stops[stop_i]))
            stop_i += 1
    while stop_i < len(stops):
        verdicts.extend(_eval_stop(monitors, stops[stop_i]))
        stop_i += 1
    return verdicts


def _eval_stop(monitors: Sequence[Monitor], stop) -> List[Verdict]:
    out = []
    for mon in monitors:
        verdict = mon.at_stop("deadlock", stop.time, stop.index)
        if verdict is not None:
            out.append(verdict)
    return out


def derive_verdicts(
    journal: ReplayJournal,
    properties: Sequence,
    graph: GraphView,
) -> List[Verdict]:
    """Re-evaluate properties against a recorded run.

    ``properties`` is a sequence of :class:`Property` objects or
    ``(check_id, Property)`` pairs — pass the ids of the live checks to
    get byte-identical verdicts for a run that was monitored live.
    """
    monitors: List[Monitor] = []
    next_id = 1
    for item in properties:
        if isinstance(item, tuple):
            check_id, prop = item
        else:
            check_id, prop = next_id, item
        next_id = max(next_id, check_id) + 1
        monitors.append(compile_property(prop, graph, check_id))
    return run_monitors(journal, monitors)

"""Routed RV dispatch: an event reaches only the monitors it can change.

Every monitor class declares the framework symbols that can change its
state.  Routing events by symbol must give exactly the verdicts that
feeding every monitor every event gives — same verdicts, same indices —
and a monitor's ``_feed`` must be a no-op for any other symbol.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.rle import build_rle_pipeline
from repro.core import DataflowSession
from repro.dbg import Debugger, StopKind
from repro.pedf.api import SYMBOLS
from repro.rv import DataflowEvent, GraphView, compile_property, parse_property
from repro.rv.derive import run_monitors
from repro.sim.replay import ReplayJournal, StopRecord

# one property per monitor kind, over the rle graph
PROPS = {
    "occupancy": "occupancy pack::o->expand::i <= 1",
    "rate": "rate expand::o == 1 * pack::i tol 1",
    "order": "order stim::out before pack::i",
    "progress": "progress pack every 2",
    "deadlock": "deadlock-free",
}


def _rle_graph():
    sched, runtime, _sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
    session = DataflowSession(Debugger(sched, runtime), stop_on_init=True)
    assert session.dbg.run().kind == StopKind.DATAFLOW  # graph reconstructed
    return session, GraphView(session.model)


SESSION, GRAPH = _rle_graph()
ACTORS = sorted(a.qualname for a in SESSION.model.actors.values())
LINKS = sorted(link.name for link in SESSION.model.links)


def _monitors(kinds):
    return [
        compile_property(parse_property(PROPS[kind]), GRAPH, check_id)
        for check_id, kind in enumerate(kinds, start=1)
    ]


events = st.builds(
    DataflowEvent,
    time=st.integers(0, 50),
    phase=st.sampled_from(["entry", "exit"]),
    symbol=st.sampled_from(sorted(SYMBOLS)),
    actor=st.sampled_from(ACTORS + [""]),
    seq=st.none() | st.integers(0, 20),
    link=st.none() | st.sampled_from(LINKS),
    target=st.none() | st.sampled_from(ACTORS),
)


def _journal(stream, stop_at):
    """A journal holding exactly ``stream`` (its iter_flow round-trips
    every field), plus an optional deadlock stop."""
    journal = ReplayJournal()
    for ev in stream:
        journal.add_flow(ev)
    if stop_at is not None:
        journal.add_stop(StopRecord(stop_at, "deadlock", "deadlock", None, 0))
    return journal


def _feed_everything(journal, monitors):
    """The unrouted reference: every monitor sees every event."""
    verdicts = []
    stops = [s for s in journal.stops if s.kind == "deadlock"]
    for position, ev in journal.iter_flow():
        for mon in monitors:
            verdict = mon.feed(ev, position)
            if verdict is not None:
                verdicts.append(verdict)
        for stop in [s for s in stops if s.index <= position]:
            stops.remove(stop)
            verdicts.extend(
                v for mon in monitors
                if (v := mon.at_stop("deadlock", stop.time, stop.index)) is not None
            )
    for stop in stops:
        verdicts.extend(
            v for mon in monitors
            if (v := mon.at_stop("deadlock", stop.time, stop.index)) is not None
        )
    return verdicts


@settings(max_examples=150, deadline=None)
@given(
    stream=st.lists(events, max_size=60),
    kinds=st.lists(st.sampled_from(sorted(PROPS)), min_size=1, max_size=5),
    stop_at=st.none() | st.integers(1, 60),
)
def test_routed_dispatch_equals_feeding_every_monitor(stream, kinds, stop_at):
    journal = _journal(stream, stop_at)
    assert [ev for _, ev in journal.iter_flow()] == stream
    routed = run_monitors(journal, _monitors(kinds))
    reference = _feed_everything(journal, _monitors(kinds))
    assert routed == reference
    assert [v.index for v in routed] == [v.index for v in reference]


@pytest.mark.parametrize("kind", sorted(PROPS))
@settings(max_examples=60, deadline=None)
@given(prefix=st.lists(events, max_size=30), probe=events)
def test_undeclared_symbols_leave_monitor_state_unchanged(kind, prefix, probe):
    (monitor,) = _monitors([kind])
    assert monitor.symbols  # every concrete monitor routes something
    for index, ev in enumerate(prefix, start=1):
        monitor._feed(ev, index)
    for symbol in sorted(set(SYMBOLS) - monitor.symbols):
        before = copy.deepcopy(monitor.__dict__)
        assert monitor._feed(probe._replace(symbol=symbol), 999) is None
        assert monitor.__dict__ == before


def _run_to_end(dbg):
    ev = dbg.cont()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


def test_live_routing_table_follows_trip_disable_and_remove():
    sched, runtime, _sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
    session = DataflowSession(Debugger(sched, runtime), stop_on_init=True)
    session.dbg.run()
    checks = session.checks
    trips = checks.add("occupancy pack::o->expand::i <= 0", "log")
    holds = checks.add("progress pack every 64", "log")

    def routed(symbol):
        return [m.check_id for m in checks._routes.get(symbol, ())]

    assert routed("pedf_rt_push") == [trips.id]
    assert routed("pedf_rt_work_enter") == [holds.id]
    checks.set_enabled(holds.id, False)
    assert routed("pedf_rt_work_enter") == []
    checks.set_enabled(holds.id, True)
    assert routed("pedf_rt_work_enter") == [holds.id]

    assert _run_to_end(session.dbg).kind == StopKind.EXITED
    assert trips.tripped and not holds.tripped
    # the tripped check left the table; the holding one stayed
    assert routed("pedf_rt_push") == []
    assert routed("pedf_rt_work_enter") == [holds.id]
    checks.remove(holds.id)
    assert checks._routes == {}

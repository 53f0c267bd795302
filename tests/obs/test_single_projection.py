"""One projection per framework event, one span pass per event.

With the journal, telemetry and RV all armed, every emitted event is
reduced to its :class:`~repro.sim.replay.DataflowEvent` exactly once and
the three taps read that same record; the span builder runs once per
event, and the flight recorder shares its pass instead of running a
second one.
"""

from repro.apps.rle import build_rle_pipeline
from repro.core import DataflowSession
from repro.dbg import Debugger, StopKind
from repro.obs.builder import TelemetryBuilder
from repro.pedf.api import FrameworkEvent
from repro.sim.replay import DataflowEvent


def test_each_event_is_projected_once_and_fed_once(monkeypatch):
    reads = []  # (framework event, the projection it handed out)
    fed = []

    project = FrameworkEvent.flow.fget

    def reading_projection(event):
        flow = project(event)
        reads.append((event, flow))
        return flow

    feed = TelemetryBuilder.feed

    def counting_feed(builder, ev):
        fed.append(ev)
        return feed(builder, ev)

    monkeypatch.setattr(FrameworkEvent, "flow", property(reading_projection))
    monkeypatch.setattr(TelemetryBuilder, "feed", counting_feed)

    sched, runtime, _sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
    session = DataflowSession(Debugger(sched, runtime), stop_on_init=True)
    session.replay.record_on()
    session.telemetry.enable()
    assert session.dbg.run().kind == StopKind.DATAFLOW
    session.checks.add("deadlock-free", "log")
    session.checks.add("occupancy pack::o->expand::i <= 4", "log")
    session.checks.add("progress pack every 64", "log")
    ev = session.dbg.cont()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = session.dbg.cont()
    assert ev.kind == StopKind.EXITED

    emitted = runtime.bus.emitted
    assert emitted > 0
    assert session.replay.master.total_events == emitted
    # one projection per event, shared by journal, telemetry and RV: every
    # read of an event hands out the same record
    flows = {}
    for event, flow in reads:
        assert isinstance(flow, DataflowEvent)
        assert flows.setdefault(id(event), flow) is flow
    assert len(flows) == emitted
    assert len(reads) > emitted  # RV read the journal's projection again
    # one span pass per event: the flight ring rides the telemetry builder
    assert len(fed) == emitted
    built = {id(flow) for flow in flows.values()}
    assert all(id(ev) in built for ev in fed)
    assert session.telemetry.builder.events_fed == emitted
    assert not hasattr(session.flight, "builder")
    assert len(session.flight.sink) > 0

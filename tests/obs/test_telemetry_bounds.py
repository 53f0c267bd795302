"""The span sink keeps the bound it was configured with.

Memory stays bounded whenever the configuration says it is: a
``trace on`` asking for a bound other than the existing sink's is
refused with a typed error naming the way out (``trace off`` +
``trace clear``), and ``trace clear`` re-arms with the bound it found.
"""

import pytest

from repro.apps.rle import build_rle_pipeline
from repro.core import DataflowSession
from repro.dbg import CommandCli, Debugger, StopKind
from repro.errors import DataflowDebugError


def rle_session():
    sched, runtime, _sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
    dbg = Debugger(sched, runtime)
    cli = CommandCli(dbg)
    session = DataflowSession(dbg, cli=cli, stop_on_init=True)
    return session, cli


def run_to_exit(dbg):
    ev = dbg.run()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


def test_bounded_trace_on_after_trace_off_is_refused_not_ignored():
    session, cli = rle_session()
    cli.execute("trace on")
    run_to_exit(session.dbg)
    cli.execute("trace off")
    out = cli.execute("trace on limit 5 ring")
    assert out[0].startswith("error:")
    assert "trace off" in out[0] and "trace clear" in out[0]
    with pytest.raises(DataflowDebugError, match="trace clear"):
        session.telemetry.enable(limit=5, ring=True)
    assert not session.telemetry.enabled
    assert session.telemetry.sink.limit is None  # the old sink is untouched

    # the named way out works: drop the data, then choose the bound
    cli.execute("trace clear")
    cli.execute("trace on limit 5 ring")
    assert session.telemetry.bound == (5, True)
    assert "ring limit=5" in "\n".join(cli.execute("trace status"))


def test_trace_clear_keeps_the_bound():
    session, cli = rle_session()
    cli.execute("trace on limit 5 ring")
    session.dbg.run()  # stops once the graph is reconstructed
    cli.execute("trace clear")
    assert session.telemetry.enabled
    assert session.telemetry.bound == (5, True)
    ev = session.dbg.cont()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = session.dbg.cont()
    sink = session.telemetry.sink
    assert len(sink) == 5 and sink.dropped > 0
    assert "ring limit=5" in "\n".join(cli.execute("trace status"))


def test_rebounding_a_running_trace_is_refused():
    session, cli = rle_session()
    cli.execute("trace on")
    out = cli.execute("trace on limit 3")
    assert out[0].startswith("error:") and "trace clear" in out[0]
    assert session.telemetry.enabled
    assert session.telemetry.bound == (None, False)
    # asking again for the bound in force stays a harmless no-op
    assert cli.execute("trace on") == ["telemetry enabled (spans + metrics collecting)"]
    run_to_exit(session.dbg)
    assert session.telemetry.sink.dropped == 0

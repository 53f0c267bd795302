"""Deterministic record/replay with time-travel stops.

Covers the journal-backed determinism self-check (replaying a recorded
run reproduces the exact token-seq stream and checkpoint digests),
`replay to` positioning, `reverse-continue` landing on the previous
dataflow stop, alteration re-application, timeline forks, and the CLI
surface (`record` / `replay` / `info replay`).
"""

import pytest

from repro.apps.rle import build_rle_pipeline
from repro.core import DataflowSession
from repro.dbg import CommandCli, Debugger, StopKind
from repro.errors import ReplayDivergenceError, ReplayError

from .util import make_session


def rle_session(values=(1, 1, 2, 3, 3, 3, 3)):
    def fresh():
        sched, runtime, sink = build_rle_pipeline(values)
        return DataflowSession(Debugger(sched, runtime))

    session = fresh()
    session.replay.register_builder(fresh)
    return session


def run_to_exit(dbg):
    ev = dbg.run()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


# ------------------------------------------------------ replay == live (RLE)


def test_full_replay_reproduces_live_run():
    session = rle_session()
    mgr = session.replay
    mgr.record_on(interval=16)
    assert run_to_exit(session.dbg).kind == StopKind.EXITED

    live_stream = mgr.master.token_stream()
    assert live_stream, "live run produced no tokens"
    assert mgr.master.checkpoints, "run too short to cross a checkpoint boundary"

    live_model = {
        link.name: (link.total_pushed, link.total_popped)
        for link in session.model.links
    }
    live_sunk = [t.value for t in session.dbg.runtime.sinks[0].received]

    ev = mgr.replay_to("end")
    assert ev.kind == StopKind.REPLAY
    rec = mgr.recorder
    assert rec.journal.token_stream() == live_stream
    # determinism self-check compared every single recorded event
    assert rec.events_compared == mgr.master.total_events
    assert rec.checkpoints_verified > 0
    assert rec.divergence is None
    assert mgr.mode == "replay"
    assert mgr.position == mgr.master.total_events

    # the rebuilt DataflowModel converges on the live run's final state
    run_to_exit(mgr.session.dbg)
    replayed_model = {
        link.name: (link.total_pushed, link.total_popped)
        for link in mgr.session.model.links
    }
    assert replayed_model == live_model
    assert [t.value for t in mgr.session.dbg.runtime.sinks[0].received] == live_sunk


def test_record_on_must_precede_first_run():
    session = rle_session()
    run_to_exit(session.dbg)
    with pytest.raises(ReplayError, match="must precede"):
        session.replay.record_on()


def test_replay_positions_seq_event_and_forward_drive():
    session = rle_session()
    mgr = session.replay
    mgr.record_on()
    run_to_exit(session.dbg)

    stream = mgr.master.token_stream()
    seq = stream[2]
    expected = mgr.master.index_for_seq(seq)
    ev = mgr.replay_to(f"seq {seq}")
    assert ev.kind == StopKind.REPLAY
    assert f"event #{expected}" in ev.message
    assert mgr.position == expected

    # moving forward within a replayed machine keeps driving it — no rebuild
    machine = mgr.session
    later = expected + 5
    mgr.replay_to(f"event {later}")
    assert mgr.session is machine
    assert mgr.position == later

    # moving backward rebuilds from scratch
    mgr.replay_to(f"event {expected}")
    assert mgr.session is not machine
    assert mgr.position == expected


def test_replay_position_errors():
    session = rle_session()
    mgr = session.replay
    with pytest.raises(ReplayError, match="nothing recorded"):
        mgr.replay_to("end")
    mgr.record_on()
    run_to_exit(session.dbg)
    with pytest.raises(ReplayError, match="out of range"):
        mgr.replay_to(f"event {mgr.master.total_events + 1}")
    with pytest.raises(ReplayError, match="bad replay position"):
        mgr.replay_to("bogus")
    with pytest.raises(ReplayError, match="no recorded token"):
        mgr.replay_to("seq 999999")


def test_replay_without_builder_is_rejected():
    sched, runtime, sink = build_rle_pipeline([1, 2, 2])
    session = DataflowSession(Debugger(sched, runtime))
    mgr = session.replay
    mgr.record_on()
    run_to_exit(session.dbg)
    with pytest.raises(ReplayError, match="register_builder"):
        mgr.replay_to("end")


def test_divergence_self_check_trips_on_tampered_journal():
    session = rle_session()
    mgr = session.replay
    mgr.record_on()
    run_to_exit(session.dbg)
    events = mgr.master.events
    tampered = events.at(10)._replace(time=events.at(10).time + 977)
    # deliberate corruption: there is no public mutator, by design
    events._records[10] = tampered
    with pytest.raises(ReplayDivergenceError, match="diverged at event #11"):
        mgr.replay_to("end")


# ----------------------------------------------- debugged run == free run


def test_journal_invariant_under_interactive_stops():
    """The event/checkpoint streams must not depend on where the user
    stopped — the property time-travel positioning relies on."""
    session_a, cli_a, dbg_a, *_ = make_session([3, 1, 4, 1, 5], stop_on_init=True)
    mgr_a = session_a.replay
    mgr_a.record_on(interval=16)
    dbg_a.run()
    cli_a.execute("iface filter_1::an_output catch")
    for _ in range(3):
        dbg_a.cont()
    run_to_exit(dbg_a)

    session_b, cli_b, dbg_b, *_ = make_session([3, 1, 4, 1, 5], stop_on_init=True)
    mgr_b = session_b.replay
    mgr_b.record_on(interval=16)
    run_to_exit(dbg_b)

    assert mgr_a.master.token_stream() == mgr_b.master.token_stream()
    assert mgr_a.master.total_events == mgr_b.master.total_events
    assert mgr_a.master.checkpoints == mgr_b.master.checkpoints


# ------------------------------------------------------------ reverse-continue


def test_reverse_continue_lands_on_previous_dataflow_stop():
    session, cli, dbg, *_ = make_session(
        [5, 6, 7, 8], stop_on_init=True, register_builder=True
    )
    mgr = session.replay
    mgr.record_on()
    dbg.run()
    cli.execute("iface filter_1::an_output catch")
    for _ in range(3):
        ev = dbg.cont()
        assert ev.kind == StopKind.DATAFLOW

    hits = [s for s in mgr.master.stops if s.kind == "dataflow"]
    # init stop + three catchpoint hits, in increasing event positions
    assert len(hits) == 4
    assert [s.index for s in hits] == sorted(s.index for s in hits)

    ev = mgr.reverse_continue()  # from the 3rd hit back to the 2nd
    assert ev.kind == StopKind.REPLAY
    assert mgr.position == hits[2].index
    assert mgr.session.dbg.scheduler.now == hits[2].time

    ev = mgr.reverse_continue()  # and again, back to the 1st
    assert mgr.position == hits[1].index
    assert mgr.session.dbg.scheduler.now == hits[1].time

    mgr.reverse_continue()  # back to the init stop
    assert mgr.position == hits[0].index
    with pytest.raises(ReplayError, match="no earlier dataflow stop"):
        mgr.reverse_continue()


# ------------------------------------------------- alterations during replay


def test_recorded_alteration_is_reapplied_during_replay():
    session, cli, dbg, runtime, sink = make_session(
        [5, 6], stop_on_init=True, register_builder=True
    )
    mgr = session.replay
    mgr.record_on()
    dbg.run()
    cli.execute("iface stim::out insert 42")
    run_to_exit(dbg)
    assert [a.kind for a in mgr.master.alterations] == ["insert"]
    live_stream = mgr.master.token_stream()
    live_results = [t.value for t in sink.received]
    assert live_results

    mgr.replay_to("end")
    rec = mgr.recorder
    assert rec.divergence is None
    assert rec.journal.token_stream() == live_stream
    # the re-applied insert was journaled again at the same position
    assert [(a.kind, a.index) for a in rec.journal.alterations] == [
        (a.kind, a.index) for a in mgr.master.alterations
    ]
    # the landing suspend sits *at* the final event, before the sink
    # coroutine resumes; running off the journal's end finishes the program
    run_to_exit(mgr.session.dbg)
    replayed_sink = mgr.session.dbg.runtime.sinks[0]
    assert [t.value for t in replayed_sink.received] == live_results


def test_new_alteration_in_replayed_past_forks_timeline():
    session, cli, dbg, *_ = make_session(
        [5, 6, 7], stop_on_init=True, register_builder=True
    )
    mgr = session.replay
    mgr.record_on()
    run_to_exit(dbg)
    old_master = mgr.master

    mgr.replay_to(f"event {old_master.total_events // 2}")
    assert mgr.mode == "replay"
    mgr.session.alter.insert("stim::out", "99")

    assert mgr.mode == "record"
    assert mgr.master is mgr.recorder.journal
    assert mgr.master is not old_master
    assert mgr.position is None
    assert mgr.recorder.reference is None  # self-check disarmed: new timeline
    # the forked timeline keeps recording live
    before = mgr.master.total_events
    run_to_exit(mgr.session.dbg)
    assert mgr.master.total_events > before


# ------------------------------------------------------------------ CLI layer


def test_cli_record_replay_commands():
    session, cli, dbg, *_ = make_session(
        [5, 6], stop_on_init=True, register_builder=True
    )
    out = cli.execute("record on every 8")
    assert out == ["Recording on (checkpoint every 8 dispatches)."]
    assert cli.execute("record on") == ["Recording is already on."]
    dbg.run()
    run_to_exit(dbg)

    out = cli.execute("info replay")
    assert out[0] == "record/replay: record"
    assert any("journal:" in line for line in out)

    out = cli.execute("replay to event 10")
    assert out[0].startswith("Replay stop")
    assert "event #10" in out[0]
    # the CLI survived the adoption swap: it now drives the replayed machine
    assert cli.dbg is session.replay.session.dbg
    out = cli.execute("info replay")
    assert out[0] == "record/replay: replay"
    assert any("position: event #10" in line for line in out)
    assert any("self-check" in line for line in out)

    assert cli.execute("replay") == [
        "error: usage: replay to seq N|time T|event K|end | replay snapshots N|off"
    ]
    out = cli.execute("replay to nowhere")
    assert out[0].startswith("error: bad replay position")
    out = cli.execute("record maybe")
    assert out[0].startswith("error:")

    out = cli.execute("record off")
    assert out == ["Recording off (journal kept for replay)."]


def test_cli_record_on_after_run_reports_error():
    session, cli, dbg, *_ = make_session([5], stop_on_init=True)
    dbg.run()
    out = cli.execute("record on")
    assert out[0].startswith("error: record on must precede")

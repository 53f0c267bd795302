"""The always-on flight recorder: bounded rings, stop history, and the
automatic post-mortem bundle on violation stops.
"""

import json

import pytest

from repro.apps.rle import build_rle_pipeline
from repro.core import DataflowSession
from repro.dbg import CommandCli, Debugger, StopKind
from repro.obs.flight import AUTO_DUMP_KINDS, SPAN_LIMIT, FlightRecorder


def rle_session(**kw):
    sched, runtime, _sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
    dbg = Debugger(sched, runtime)
    cli = CommandCli(dbg)
    return DataflowSession(dbg, cli=cli, **kw), cli


def run_to_exit(dbg):
    ev = dbg.run()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


def test_recorder_is_armed_from_construction():
    session, _ = rle_session()
    assert isinstance(session.flight, FlightRecorder)
    assert session.flight.auto_dump
    assert "armed (always on)" in session.flight.status_lines()[0]


def test_ring_bounds_span_capture():
    session, _ = rle_session()
    session.flight.sink.limit = 8  # shrink before anything is collected
    session.telemetry.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    snapshot = session.flight.sink.snapshot()
    assert len(snapshot.spans) <= 8
    assert session.flight.sink.dropped > 0  # ring evicted, never grew
    # the full telemetry sink kept everything — the ring is a copy tap
    assert len(session.telemetry.sink) > 8


def test_stop_history_and_deltas_accumulate():
    session, _ = rle_session()
    session.telemetry.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    kinds = [s["kind"] for s in session.flight.stops]
    assert kinds[-1] == "exited"
    assert len(session.flight.deltas) == len(session.flight.stops)
    # counters moved between init and exit, so the exit delta is non-empty
    assert session.flight.deltas[-1]["actors"]


def test_auto_dump_on_violation(tmp_path):
    session, cli = rle_session(stop_on_init=True)
    session.flight.dump_dir = str(tmp_path)
    session.telemetry.enable()
    session.dbg.run()  # stop after init
    session.checks.add("occupancy pack::o->expand::i <= 0")
    ev = session.dbg.cont()
    assert ev.kind == StopKind.VIOLATION
    assert StopKind.VIOLATION in AUTO_DUMP_KINDS
    dumps = list(tmp_path.glob("flight_violation_t*.json"))
    assert len(dumps) == 1
    bundle = json.loads(dumps[0].read_text())
    assert bundle["flight"]["reason"] == "auto:violation"
    assert bundle["stops"][-1]["kind"] == "violation"
    assert bundle["flight"]["telemetry_observed"] is True
    # the CLI stop banner surfaces the dump exactly once
    notice = session.flight.take_notice()
    assert notice is not None and str(dumps[0]) in notice
    assert session.flight.take_notice() is None


def test_auto_dump_can_be_disabled(tmp_path):
    session, cli = rle_session(stop_on_init=True)
    session.flight.dump_dir = str(tmp_path)
    assert cli.execute("flight auto off") == ["flight auto-dump off"]
    session.dbg.run()
    session.checks.add("occupancy pack::o->expand::i <= 0")
    assert session.dbg.cont().kind == StopKind.VIOLATION
    assert list(tmp_path.glob("*.json")) == []
    # the stop itself is still remembered
    assert session.flight.stops[-1]["kind"] == "violation"


def test_manual_dump_via_cli(tmp_path):
    session, cli = rle_session()
    session.telemetry.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    target = tmp_path / "deep" / "bundle.json"
    out = cli.execute(f"flight dump {target}")
    assert out == [f"flight bundle written to {target}"]
    bundle = json.loads(target.read_text())
    assert bundle["flight"]["reason"] == "manual"
    assert bundle["config"]["interp_tier"] == "auto"
    assert bundle["spans"] and bundle["metrics"]
    # a second dump to the same explicit path needs force
    out = cli.execute(f"flight dump {target}")
    assert out and out[0].startswith("error:")
    assert cli.execute(f"flight dump {target} force")[0].startswith(
        "flight bundle written"
    )


def test_bundle_without_telemetry_says_so(tmp_path):
    session, _ = rle_session()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    bundle = session.flight.bundle("manual")
    assert bundle["flight"]["telemetry_observed"] is False
    assert bundle["spans"] == []
    assert bundle["stops"]  # the stop log is always there


def test_bundle_carries_recorded_token_content():
    session, cli = rle_session(stop_on_init=True)
    session.dbg.run()
    cli.execute("iface pack::o record")
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    tokens = session.flight.bundle("manual")["tokens"]
    assert tokens is not None
    assert any("iface pack::o" in line for line in tokens)
    # paper-style content lines ("#1 (U16) 5") ride along
    assert any(line.strip().startswith("#") for line in tokens)


def test_bundle_carries_journal_refs():
    session, _ = rle_session()
    session.replay.record_on()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    refs = session.flight.bundle("manual")["journal"]
    assert refs is not None and refs["total_events"] > 0


# ------------------------------------------------ one span pass with telemetry


def test_ring_is_the_tail_of_the_telemetry_span_stream():
    sched, runtime, _sink = build_rle_pipeline([5, 5, 5, 2, 7, 7] * 8)
    session = DataflowSession(Debugger(sched, runtime))
    session.telemetry.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    spans = session.telemetry.sink.spans
    assert session.telemetry.sink.dropped == 0
    assert len(spans) > SPAN_LIMIT  # the ring had to evict
    assert session.flight.sink.spans == spans[-SPAN_LIMIT:]
    assert session.flight.sink.dropped == len(spans) - SPAN_LIMIT


def test_bundle_metrics_are_info_metrics():
    session, cli = rle_session()
    session.telemetry.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    metrics = session.flight.bundle("manual")["metrics"]
    assert metrics and metrics == cli.execute("info metrics all")


def test_trace_clear_keeps_ring_and_deltas_stay_non_negative():
    session, cli = rle_session(stop_on_init=True)
    session.telemetry.enable()
    session.dbg.run()
    cli.execute("filter expand catch work")
    for _ in range(3):
        assert session.dbg.cont().kind == StopKind.DATAFLOW
    before = session.flight.sink.spans
    assert before
    cli.execute("trace clear")
    cli.execute("delete")
    ev = session.dbg.cont()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = session.dbg.cont()
    assert ev.kind == StopKind.EXITED
    after = session.flight.sink.spans
    assert len(after) < SPAN_LIMIT  # nothing evicted: the old spans stay
    assert after[: len(before)] == before
    assert len(after) > len(before)
    for delta in session.flight.deltas:
        for counts in delta["actors"].values():
            assert all(value >= 0 for value in counts.values()), delta
    # the exit delta counts what happened since the clear
    assert session.flight.deltas[-1]["actors"]

"""O(1)-ish time travel: restorable snapshots must change the *cost* of
a hop, never its outcome.

``replay to`` restoring a parked resident machine and re-executing only
the tail has to be observationally indistinguishable from the old
full re-execution: same journal fingerprint, same ``rv.derive``
verdicts, same derived telemetry — byte for byte, on both interpreter
tiers, and per shard in a sharded run (barrier snapshots).  The cost
side is gated through ``last_restore``: deterministic event counts, not
wall clocks.
"""

import pytest

from repro.apps.amodule import build_demo
from repro.apps.rle import build_rle_pipeline
from repro.apps.rle.app import RLE_HOSTS, build_rle_program
from repro.core import DataflowSession
from repro.core.replay import ReplayCoverageWarning
from repro.core.shards import ShardedRun
from repro.dbg import Debugger, StopKind
from repro.errors import ReplayError
from repro.obs import derive_telemetry, to_chrome_trace
from repro.rv import GraphView, derive_verdicts, parse_property
from repro.sim.sharding import HostSpec, partition_program

from .util import make_session

VALUES = [5, 5, 5, 2, 7, 7, 1, 2, 3, 4, 9, 9] * 4  # ~1400 journal events
RLE_PROPS = [
    "occupancy pack::o->expand::i <= 0",
    "rate expand::o == 1 * pack::i tol 6",
]


def _set_tier(runtime, tier):
    runtime.config.interp_tier = tier
    for actor in runtime.all_actors():
        interp = getattr(actor, "interp", None)
        if interp is not None:
            interp.tier = tier


def run_to_exit(dbg):
    ev = dbg.run() if not dbg.runtime.loaded else dbg.cont()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


def rle_session(tier="auto", values=VALUES):
    def fresh():
        sched, runtime, sink = build_rle_pipeline(values)
        _set_tier(runtime, tier)
        return DataflowSession(Debugger(sched, runtime))

    session = fresh()
    session.replay.register_builder(fresh)
    return session


def journal_artifacts(journal, model):
    """Everything a consumer can derive from a journal, rendered to
    comparable bytes: fingerprint streams, rv verdicts, telemetry."""
    props = [parse_property(p) for p in RLE_PROPS]
    verdicts = derive_verdicts(journal, props, GraphView(model))
    tel = derive_telemetry(journal)
    return (
        journal.token_stream(),
        journal.link_value_streams(),
        "\n".join(line for v in verdicts for line in v.render()),
        tel.sink.snapshot(),
        tel.metrics.render(),
        to_chrome_trace(tel.sink.snapshot().spans, "app"),
    )


# ------------------------------------------- hop == full re-execution


@pytest.mark.parametrize("tier", ["auto", "slow"])
def test_restore_hop_matches_full_reexecution(tier):
    session = rle_session(tier)
    mgr = session.replay
    mgr.record_on(interval=16)
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    master = mgr.master
    total = master.total_events
    reference = journal_artifacts(master, session.model)

    # first sweep: seeds geometric anchors en route, restores the nearest
    ev = mgr.replay_to("end")
    assert ev.kind == StopKind.REPLAY
    src, target, tail = mgr.last_restore
    assert target == total
    assert src > 0, "expected a resident restore, not a full rebuild"
    assert tail == total - src
    assert tail < total // 2  # O(tail), not O(run length)
    rec = mgr.recorder
    assert rec.divergence is None
    assert journal_artifacts(rec.journal, mgr.session.model) == reference

    # backward hop onto the parked mid anchor: exact hit, zero re-execution
    mid = total // 2
    ev = mgr.replay_to(f"event {mid}")
    assert ev.kind == StopKind.REPLAY
    assert mgr.position == mid
    assert mgr.last_restore == (mid, mid, 0)

    # short forward hop: drives the adopted machine, tail events only
    mgr.replay_to(f"event {mid + 5}")
    assert mgr.last_restore == (mid, mid + 5, 5)

    # the journey changed nothing: the tail-extended journal still
    # matches the master prefix event for event
    assert mgr.recorder.divergence is None
    prefix = mgr.recorder.journal.token_stream()
    assert prefix == master.token_stream()[: len(prefix)]


def test_info_reports_pool_and_last_hop():
    session = rle_session()
    mgr = session.replay
    mgr.record_on(interval=16)
    run_to_exit(session.dbg)
    mgr.replay_to("end")
    text = "\n".join(mgr.info())
    assert "resident snapshots:" in text and "parked @ event(s)" in text
    assert "last hop: to event #" in text and "restored resident @event" in text
    assert "deep snapshot(s) verified identical" in text


def test_pool_off_forces_full_rebuild():
    session = rle_session()
    mgr = session.replay
    mgr.record_on(interval=16)
    run_to_exit(session.dbg)
    total = mgr.master.total_events
    assert mgr.set_pool_limit(0) == [
        "Resident snapshots off (every hop re-executes from the start)."
    ]
    mgr.replay_to("end")
    assert mgr.last_restore == (0, total, total)  # the old O(run) behaviour
    assert not mgr.pool


# ------------------------------------------------- deep journal snapshots


def test_deep_snapshots_recorded_and_verified_on_replay():
    session = rle_session()
    mgr = session.replay
    mgr.record_on(interval=16)
    run_to_exit(session.dbg)
    master = mgr.master
    assert master.state_snapshots, "run too short to cross a snapshot boundary"
    mgr.set_pool_limit(0)  # full sweep => every reference snapshot en route
    mgr.replay_to("end")
    rec = mgr.recorder
    assert rec.divergence is None
    assert rec.snapshots_verified > 0
    assert rec.snapshots_verified <= len(master.state_snapshots)


def test_journal_snapshots_are_tier_invariant():
    """Deep snapshots carry no interpreter frames, so the recorded states
    must be byte-identical between the slow and bytecode tiers."""
    snaps = {}
    for tier in ("auto", "slow"):
        session = rle_session(tier)
        session.replay.record_on(interval=16)
        run_to_exit(session.dbg)
        snaps[tier] = session.replay.master.state_snapshots
    assert snaps["auto"]
    assert snaps["auto"] == snaps["slow"]


# ------------------------------------------------------- segment rotation


def test_segmented_recording_round_trip_and_hop(tmp_path):
    session = rle_session()
    mgr = session.replay
    mgr.record_on(interval=16, segment_dir=str(tmp_path / "segs"), window=64)
    run_to_exit(session.dbg)
    master = mgr.master
    assert master.segments is not None and master.segments.segments
    assert len(master.events) < 64  # memory stayed within the window
    assert master.evicted_events == 0

    # identical run on an unbounded journal: every derivable artifact agrees
    twin = rle_session()
    twin.replay.record_on(interval=16)
    run_to_exit(twin.dbg)
    ref = twin.replay.master
    assert master.total_events == ref.total_events
    assert journal_artifacts(master, session.model) == journal_artifacts(
        ref, twin.model
    )

    # time travel over the rotated master (self-check reads segments too)
    mid = master.total_events // 2
    ev = mgr.replay_to(f"event {mid}")
    assert ev.kind == StopKind.REPLAY and mgr.position == mid
    assert mgr.recorder.divergence is None


# ------------------------------------- bounded-journal bugfixes (satellites)


def test_negative_positions_are_rejected():
    session = rle_session()
    mgr = session.replay
    mgr.record_on()
    run_to_exit(session.dbg)
    with pytest.raises(ReplayError, match="bad replay position"):
        mgr.replay_to("time -5")
    with pytest.raises(ReplayError, match="bad replay position"):
        mgr.replay_to("event -3")
    with pytest.raises(ReplayError, match="bad replay position"):
        mgr.replay_to("seq -1")


def test_capped_journal_distinguishes_evicted_positions():
    session = rle_session()
    mgr = session.replay
    mgr.record_on(limit=40)
    run_to_exit(session.dbg)
    master = mgr.master
    assert master.evicted_events > 0
    # this token existed — the cap dropped it; the error must say so
    with pytest.raises(ReplayError, match="evicted by the journal bound"):
        mgr.replay_to(f"seq {master.max_seq_recorded}")
    # a time past the stored prefix is unknowable, not "never happened"
    with pytest.raises(ReplayError, match="evicted by the journal bound"):
        mgr.replay_to("time 999999999")
    # this token never existed — still the old, honest error
    with pytest.raises(ReplayError, match="no recorded token"):
        mgr.replay_to("seq 99999999")


def test_partial_reference_warns_instead_of_silently_passing():
    session = rle_session()
    mgr = session.replay
    mgr.record_on(limit=40)
    run_to_exit(session.dbg)
    total = mgr.master.total_events
    with pytest.warns(ReplayCoverageWarning, match="no reference for event #41"):
        mgr.replay_to("end")
    rec = mgr.recorder
    assert rec.divergence is None
    assert rec.uncovered == (41, total)
    assert any("self-check WARNING" in line for line in mgr.info())


# -------------------------------------------------------- fork invalidation


def test_fork_invalidates_resident_pool():
    session, cli, dbg, *_ = make_session(
        [1, 2, 3, 4, 5, 6, 7, 8], stop_on_init=True, register_builder=True
    )
    mgr = session.replay
    mgr.record_on(interval=8)
    dbg.run()
    run_to_exit(dbg)
    mgr.replay_to("end")
    assert mgr.pool, "first sweep should have parked anchor machines"
    mid = mgr.master.total_events // 2
    mgr.replay_to(f"event {mid}")
    mgr.session.alter.insert("stim::out", "42")
    # new timeline: parked residents were verified against the old future
    assert mgr.mode == "record"
    assert mgr.pool == []
    assert mgr.last_restore is None


# ---------------------------------------------------------------- CLI layer


def test_cli_segment_and_snapshot_options(tmp_path):
    session, cli, dbg, *_ = make_session(
        [5, 6], stop_on_init=True, register_builder=True
    )
    out = cli.execute(f"record on every 8 segments {tmp_path}/segs window 32 snapshot 2")
    assert "segments in" in out[0] and "window 32" in out[0]
    dbg.run()
    run_to_exit(dbg)
    assert any("segments:" in line for line in cli.execute("info replay"))

    assert cli.execute("replay snapshots 2") == [
        "Resident snapshot pool: 2 machine(s)."
    ]
    assert cli.execute("replay snapshots off") == [
        "Resident snapshots off (every hop re-executes from the start)."
    ]
    out = cli.execute("replay snapshots maybe")
    assert out == ["error: usage: replay snapshots N|off"]


# ----------------------------------------------------- sharded runs (2-shard)


def _sharded_rle(snapshots=True):
    plan = partition_program(
        build_rle_program(list(VALUES)), 2, hosts=[HostSpec(*h) for h in RLE_HOSTS]
    )

    def build(ctx):
        sched, runtime, sink = build_rle_pipeline(list(VALUES), shard=ctx)
        return DataflowSession(Debugger(sched, runtime))

    return ShardedRun(plan, build, record=True, snapshots=snapshots)


def test_two_shard_barrier_snapshots_are_deterministic():
    run_a = _sharded_rle()
    assert run_a.run().kind == "exited"
    assert run_a.engine.snapshots_taken > 0
    states_a = run_a.barrier_states()
    assert set(states_a) == {0, 1}

    run_b = _sharded_rle()
    assert run_b.run().kind == "exited"
    # barrier states are a pure function of plan + program: shard for
    # shard, byte for byte — and so is the merged fingerprint
    assert run_b.barrier_states() == states_a
    assert run_b.fingerprint() == run_a.fingerprint()
    assert any("barrier snapshots" in line for line in run_a.info_lines())

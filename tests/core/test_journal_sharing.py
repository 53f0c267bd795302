"""The replay journal stores DataflowEvents: the self-check compares the
whole event, and replayed journals share the recorded event objects.

Every field of a recorded event — link and target included — is part of
the determinism self-check, so tampering with either in the master
journal must trip the divergence stop.  A verified replay stores the
master's own tuple, so after ``replay to end`` the replayed journal holds
the very same objects as the master, position by position — and the
same payload texts.  ``info replay`` counts tokens without streaming the
journal back from its on-disk segments.
"""

import pytest

from repro.errors import ReplayDivergenceError
from repro.sim.segments import SegmentStore

from .test_record_replay import rle_session, run_to_exit


def recorded_rle():
    session = rle_session()
    session.replay.record_on()
    run_to_exit(session.dbg)
    return session.replay


def tamper_first(mgr, field):
    """Rewrite ``field`` of the first master event that carries one;
    returns that event's 1-based position."""
    events = mgr.master.events
    for offset, ev in enumerate(events):
        if getattr(ev, field) is not None:
            # deliberate corruption: there is no public mutator, by design
            events._records[offset] = ev._replace(**{field: "tampered"})
            return offset + 1
    raise AssertionError(f"rle run recorded no event with a {field}")


@pytest.mark.parametrize("field", ["link", "target"])
def test_tampering_one_field_trips_the_self_check(field):
    mgr = recorded_rle()
    position = tamper_first(mgr, field)
    with pytest.raises(ReplayDivergenceError, match=f"diverged at event #{position}:"):
        mgr.replay_to("end")


def test_replayed_journal_shares_the_master_events():
    mgr = recorded_rle()
    mgr.replay_to("end")
    master = mgr.master.events
    replayed = mgr.recorder.journal.events
    assert len(replayed) == len(master) == mgr.master.total_events
    assert all(got is want for got, want in zip(replayed, master))


def test_replayed_journal_shares_the_master_value_texts():
    mgr = recorded_rle()
    mgr.replay_to("end")
    master = mgr.master.event_values
    replayed = mgr.recorder.journal.event_values
    assert master and replayed.keys() == master.keys()
    assert all(replayed[pos] is text for pos, text in master.items())


def test_info_replay_counts_tokens_without_loading_segments(tmp_path, monkeypatch):
    session = rle_session(values=tuple(1 + (i % 5) for i in range(200)))
    session.replay.record_on(segment_dir=str(tmp_path), window=64)
    run_to_exit(session.dbg)
    master = session.replay.master
    assert master.segments.segments, "run never rotated a segment"
    loads = []
    load = SegmentStore.load
    monkeypatch.setattr(
        SegmentStore, "load", lambda store, seg: loads.append(seg) or load(store, seg)
    )
    lines = session.replay.info()
    assert loads == [], "info replay decoded on-disk segments"
    expected = len(master.token_stream())
    assert expected > 0
    assert f"  tokens recorded: {expected}" in lines

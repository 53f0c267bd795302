"""Journal segment rotation: bounded memory, nothing lost.

A segment-rotating ReplayJournal must behave observably identically to
an unbounded one — same positions, same records, same side tables, same
streams — while keeping only the configured window in memory.  The
lossy cap/ring bounds, by contrast, must now *say* what they lost:
evicted-vs-never-recorded is distinguishable through seq_status /
time_status and link_value_streams refuses to pretend a partial stream
is complete.
"""

import pytest

from repro.errors import ReplayError
from repro.sim.replay import DataflowEvent, ReplayJournal
from repro.sim.segments import SegmentStore
from repro.sim.trace import TraceRecorder


def fill(journal, n, start_seq=1):
    """Record n push exits (seq start_seq..) with full side tables."""
    for k in range(n):
        seq = start_seq + k
        index = journal.add_flow(
            DataflowEvent(k * 10, "exit", "pedf_rt_push", f"actor{k % 3}", seq, f"link{k % 4}")
        )
        journal.note_event_value(index, str(seq * 7))
        journal.add_flow(
            DataflowEvent(k * 10, "exit", "pedf_rt_actor_start", "ctl", None,
                          target=f"actor{k % 3}")
        )


# ----------------------------------------------------------- TraceRecorder


def test_drain_oldest_keeps_by_kind_consistent():
    rec = TraceRecorder()
    for i in range(10):
        rec.record(i, "p", "a" if i % 2 else "b", i)
    drained = rec.drain_oldest(4)
    assert [r.detail for r in drained] == [0, 1, 2, 3]
    assert len(rec) == 6
    assert rec.dropped == 0  # rotation is not loss
    assert [r.detail for r in rec.of_kind("a")] == [5, 7, 9]
    assert [r.detail for r in rec.of_kind("b")] == [4, 6, 8]
    assert rec.drain_oldest(100) and len(rec) == 0


# ------------------------------------------------------------- SegmentStore


def test_segment_store_round_trip_and_lookup(tmp_path):
    store = SegmentStore(str(tmp_path))
    src = TraceRecorder()
    for i in range(20):
        src.record(i, "p", "k", i)
    recs = src.records
    store.rotate(1, recs[:10], {1: "l"}, {2: "t"}, {3: "v"}, {7: "tok"})
    store.rotate(11, recs[10:], {}, {}, {}, {})
    assert store.total_stored == 20
    assert store.segment_for(1).first == 1
    assert store.segment_for(10).last == 10
    assert store.segment_for(11).first == 11
    assert store.segment_for(21) is None and store.segment_for(0) is None
    data = store.load(store.segment_for(5))
    assert data.record_at(5).detail == 4
    assert data.event_links == {1: "l"} and data.token_links == {7: "tok"}
    assert [d for _, d in store.iter_records()] == recs
    assert [i for i, _ in store.iter_records()] == list(range(1, 21))
    assert "2 segment(s)" in store.describe()
    with pytest.raises(ValueError):
        store.rotate(21, [], {}, {}, {}, {})


# ------------------------------------------------- rotation transparency


def test_segmented_journal_equals_unbounded(tmp_path):
    plain = ReplayJournal()
    seg = ReplayJournal(segment_dir=str(tmp_path), window=32)
    fill(plain, 200)
    fill(seg, 200)

    assert seg.total_events == plain.total_events == 400
    assert len(seg.events) < 64  # in-memory window stayed bounded
    assert len(seg.segments.segments) > 0
    assert seg.evicted_events == 0
    assert seg.stored_range() == (1, 400)

    # every record reachable at its position, memory or disk
    for idx in (1, 2, 33, 199, 400):
        assert seg.record_at(idx) == plain.record_at(idx)
    # side-table accessors fall back to segments
    for idx in range(1, 401):
        assert seg.link_for_event(idx) == plain.event_links.get(idx)
        assert seg.value_for_event(idx) == plain.event_values.get(idx)
        assert seg.target_for_event(idx) == plain.event_targets.get(idx)
    # token_links rotated with the minting push event
    assert seg.token_link(1) == "link0"
    assert seg.token_link(200) == plain.token_links[200]
    assert seg.token_link(9999) is None

    # streamed views are byte-identical to the unbounded journal
    assert list(seg.iter_indexed()) == [
        (i + 1, r) for i, r in enumerate(plain.events.records)
    ]
    assert seg.token_stream() == plain.token_stream()
    assert seg.link_value_streams() == plain.link_value_streams()
    assert seg.index_for_seq(150) == plain.index_for_seq(150)
    assert seg.index_for_time(1500) == plain.index_for_time(1500)


def test_segment_dir_overrides_lossy_bounds(tmp_path):
    j = ReplayJournal(limit=10, ring=True, segment_dir=str(tmp_path), window=16)
    fill(j, 50)
    assert j.evicted_events == 0
    assert j.record_at(1) is not None


# -------------------------------------- evicted vs never recorded (bugfix)


def test_ring_journal_distinguishes_evicted_from_unknown():
    j = ReplayJournal(limit=10, ring=True)
    fill(j, 50)  # 100 events total, only last 10 stored
    # seq 50 is in the stored window
    status, index = j.seq_status(50)
    assert status == "found" and j.record_at(index).detail == 50
    # seq 3 was recorded then evicted — must NOT claim it never existed
    assert j.seq_status(3) == ("evicted", None)
    # seq 999 was never recorded
    assert j.seq_status(999) == ("unknown", None)
    # time inside the evicted prefix is unanswerable...
    assert j.time_status(5)[0] == "evicted"
    # ...after the oldest surviving record it is exact
    lo, hi = j.stored_range()
    oldest = j.record_at(lo)
    status, index = j.time_status(oldest.time + 1)
    assert status == "found" and index > lo
    # beyond the end of the run: plain unknown
    assert j.time_status(10_000) == ("unknown", None)


def test_cap_journal_distinguishes_dropped_tail():
    j = ReplayJournal(limit=10)  # keeps the FIRST 10 events
    fill(j, 50)
    assert j.seq_status(2) == ("found", 3)  # seq 2's push sits at position 3
    # seq 40's push fell past the cap: evicted, not unknown
    assert j.seq_status(40) == ("evicted", None)
    assert j.seq_status(999) == ("unknown", None)
    # a time past the stored prefix cannot be resolved reliably
    assert j.time_status(400)[0] == "evicted"


def test_link_value_streams_refuses_partial_unless_asked():
    j = ReplayJournal(limit=10, ring=True)
    fill(j, 50)
    with pytest.raises(ReplayError, match="evicted"):
        j.link_value_streams()
    partial = j.link_value_streams(partial=True)
    assert partial  # the surviving window still streams
    unbounded = ReplayJournal()
    fill(unbounded, 50)
    assert unbounded.link_value_streams()  # complete journal: no error

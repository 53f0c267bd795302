"""iter_flow returns exactly the recorded events that survive the bound.

Whatever the storage policy — unbounded, cap (first N), ring (last N) or
segment rotation to disk — streaming a journal yields the appended
DataflowEvents themselves, at their 1-based positions, for the window
that policy keeps.
"""

import tempfile

from hypothesis import given, settings, strategies as st

from repro.sim.replay import DataflowEvent, ReplayJournal

names = st.sampled_from(["a", "b.f", "ctl", ""])
optional_name = st.one_of(st.none(), st.sampled_from(["l0", "l1", "x->y"]))

events = st.builds(
    DataflowEvent,
    time=st.integers(0, 1000),
    phase=st.sampled_from(["entry", "exit"]),
    symbol=st.sampled_from(["pedf_rt_push", "pedf_rt_pop", "pedf_rt_actor_start"]),
    actor=names,
    seq=st.one_of(st.none(), st.integers(0, 500)),
    link=optional_name,
    target=optional_name,
)


def record(journal, stream):
    for ev in stream:
        journal.add_flow(ev)
    return list(journal.iter_flow())


@settings(max_examples=60, deadline=None)
@given(stream=st.lists(events, max_size=80), limit=st.integers(0, 40), window=st.integers(2, 16))
def test_iter_flow_is_the_surviving_window(stream, limit, window):
    indexed = list(enumerate(stream, 1))
    assert record(ReplayJournal(), stream) == indexed
    assert record(ReplayJournal(limit=limit), stream) == indexed[:limit]
    assert record(ReplayJournal(limit=limit, ring=True), stream) == (
        indexed[max(0, len(indexed) - limit):] if limit else []
    )
    with tempfile.TemporaryDirectory() as segment_dir:
        assert record(ReplayJournal(segment_dir=segment_dir, window=window), stream) == indexed

"""Resident-pool eviction minimises the expected replay tail.

A hop to a uniformly random position re-executes, on average, a tail
proportional to the sum of squared gaps between consecutive residents
(position 0 and the journal end are fixed ends).  Removing a resident
merges its two gaps and adds ``2 * g_left * g_right`` to that sum, so the
pool evicts the resident with the smallest gap product.
"""

from types import SimpleNamespace

from repro.core.replay import ReplayManager, ResidentSnapshot


class FakeRecorder:
    def __init__(self):
        self.detached = False

    def detach(self):
        self.detached = True


def pool_at(positions, journal_end):
    mgr = ReplayManager(session=None)
    mgr.master = SimpleNamespace(total_events=journal_end)
    mgr.pool = [ResidentSnapshot(p, None, FakeRecorder(), None) for p in positions]
    return mgr


def sum_sq_gaps(positions, end):
    bounds = [0] + sorted(positions) + [end]
    return sum((b - a) ** 2 for a, b in zip(bounds, bounds[1:]))


def test_evicts_the_smallest_gap_product():
    # gaps: 10 | 30 | 5 | 55   products: 10*30=300, 30*5=150, 5*55=275
    mgr = pool_at([10, 40, 45], journal_end=100)
    residents = {r.position: r for r in mgr.pool}
    mgr._evict_one()
    assert sorted(r.position for r in mgr.pool) == [10, 45]
    assert residents[40].recorder.detached
    assert not residents[10].recorder.detached and not residents[45].recorder.detached


def test_smallest_gap_is_not_always_the_cheapest_removal():
    # the old rule (smallest gap to the predecessor) would drop 45
    # (gap 5); dropping 40 instead keeps the expected tail lower
    positions, end = [10, 40, 45], 100
    mgr = pool_at(positions, end)
    mgr._evict_one()
    kept = [r.position for r in mgr.pool]
    assert sum_sq_gaps(kept, end) == min(
        sum_sq_gaps([p for p in positions if p != drop], end) for drop in positions
    )
    assert sum_sq_gaps(kept, end) < sum_sq_gaps([10, 40], end)


def test_resident_at_the_journal_end_goes_first():
    # a resident at the end covers no target beyond itself: product 0
    mgr = pool_at([50, 100], journal_end=100)
    mgr._evict_one()
    assert [r.position for r in mgr.pool] == [50]

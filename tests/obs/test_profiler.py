"""Attributed cycle profiler: live attribution, tier labels, no-deopt
arming, replay-side derivation equality, and the export formats.
"""

import pytest

from repro.apps.rle import build_rle_pipeline
from repro.cminus.interp import DebugHook
from repro.core import DataflowSession
from repro.dbg import Debugger, StopKind
from repro.obs import derive_profile, flame_svg
from repro.obs.prof import Profile


def rle_session(values=(5, 5, 5, 2, 7, 7), tier="auto"):
    sched, runtime, _sink = build_rle_pipeline(list(values))
    session = DataflowSession(Debugger(sched, runtime))
    runtime.config.interp_tier = tier
    for actor in runtime.all_actors():
        if getattr(actor, "interp", None) is not None:
            actor.interp.tier = tier
    return session


def run_to_exit(dbg):
    ev = dbg.run()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


# ------------------------------------------------------------ arming model


def test_profiler_off_by_default_and_armed_on_enable():
    session = rle_session()
    dbg = session.dbg
    assert not session.prof.enabled
    assert not dbg.hook.capabilities & DebugHook.CAP_PROFILE
    session.prof.enable()
    assert dbg.hook.capabilities & DebugHook.CAP_PROFILE
    # CAP_PROFILE must NOT deoptimize: tier selection ignores it, the
    # only new work is the cycle-flush charge
    for actor in dbg.runtime.all_actors():
        interp = getattr(actor, "interp", None)
        if interp is not None:
            assert interp._fast_ok
            assert interp._count_cycles
            assert interp._profile is not None
    session.prof.disable()
    assert not dbg.hook.capabilities & DebugHook.CAP_PROFILE
    for actor in dbg.runtime.all_actors():
        interp = getattr(actor, "interp", None)
        if interp is not None:
            assert not interp._count_cycles
            assert interp._profile is None


# --------------------------------------------------- attribution exactness


@pytest.mark.parametrize("tier", ["auto", "slow"])
def test_profile_total_equals_flushed_cycles(tier):
    session = rle_session(tier=tier)
    session.prof.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    profile = session.prof.profile
    assert profile.total > 0
    flushed = sum(
        actor.interp.cycles_flushed
        for actor in session.dbg.runtime.all_actors()
        if getattr(actor, "interp", None) is not None
    )
    # every flushed cycle is charged to exactly one call-tree node
    assert profile.total == flushed
    assert sum(profile.nodes.values()) == flushed


@pytest.mark.parametrize(
    "tier,label", [("auto", "vm"), ("slow", "tree")]
)
def test_tier_attribution_labels(tier, label):
    session = rle_session(tier=tier)
    session.prof.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    tiers = session.prof.profile.tier_cycles()
    assert label in tiers
    # the dominant tier is the forced one
    assert tiers[label] == max(tiers.values())


def test_profile_attributes_to_known_actors_and_functions():
    session = rle_session()
    session.prof.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    actors = {actor for (actor, _tier, _path) in session.prof.profile.nodes}
    assert "codec.pack" in actors and "codec.expand" in actors
    funcs = {
        path[-1] for (_actor, _tier, path) in session.prof.profile.nodes if path
    }
    assert "PackFilter_work_function" in funcs


# ---------------------------------------------------- replay-side deriving


@pytest.mark.parametrize("tier", ["auto", "slow"])
def test_derived_profile_equals_live_profile(tier):
    session = rle_session(tier=tier)
    session.replay.record_on()
    session.prof.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    live = session.prof.profile

    derived = derive_profile(session.replay.master, rle_session, tier=tier)
    assert derived.verified
    assert derived.profile.collapsed() == live.collapsed()
    assert derived.profile.total == live.total


def test_derive_profile_from_unprofiled_recording():
    """A run recorded *without* the profiler armed is still profilable
    after the fact — the deriver re-executes with only CAP_PROFILE on."""
    session = rle_session()
    session.replay.record_on()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    assert not session.prof.enabled
    derived = derive_profile(session.replay.master, rle_session)
    assert derived.verified
    assert derived.profile.total > 0


# -------------------------------------------------------- profile algebra


def _toy_profile():
    p = Profile()
    p.add("a.x", "tree", ("main", "work"), 10)
    p.add("a.x", "tree", ("main",), 5)
    p.add("a.y", "vm", ("main", "work", "leaf"), 7)
    return p


def test_self_and_inclusive_cycles():
    p = _toy_profile()
    self_c = p.self_cycles()
    assert self_c[("a.x", "work")] == 10
    assert self_c[("a.x", "main")] == 5
    incl = p.inclusive_cycles()
    assert incl[("a.x", "main")] == 15  # main + its callee
    assert incl[("a.y", "work")] == 7
    assert p.total == 22


def test_recursive_paths_do_not_double_count_inclusive():
    p = Profile()
    p.add("a.r", "tree", ("f", "f", "f"), 9)
    assert p.inclusive_cycles()[("a.r", "f")] == 9


def test_top_zero_shows_all_rows():
    p = _toy_profile()
    assert len(p.top(2)) == 2
    assert len(p.top(0)) == len(p.top(10**6))


def test_collapsed_is_sorted_and_parseable():
    p = _toy_profile()
    lines = p.collapsed()
    assert lines == sorted(lines)
    for line in lines:
        stack, _, cycles = line.rpartition(" ")
        assert int(cycles) > 0
        parts = stack.split(";")
        assert len(parts) >= 2  # actor;tier[;frames...]


# ------------------------------------------------------------- exports


def test_flame_svg_renders_deterministically(tmp_path):
    session = rle_session()
    session.prof.enable()
    assert run_to_exit(session.dbg).kind == StopKind.EXITED
    svg = flame_svg(session.prof.profile)
    assert svg.startswith("<svg") or svg.startswith("<?xml")
    assert "PackFilter_work_function" in svg
    assert svg == flame_svg(session.prof.profile)  # pure function

    target = tmp_path / "deep" / "flame.svg"
    nbytes = session.prof.export_flamegraph(str(target))
    assert target.exists() and nbytes == len(target.read_bytes())

    stacks = tmp_path / "prof.collapsed"
    session.prof.export_collapsed(str(stacks))
    assert stacks.read_text().splitlines() == session.prof.profile.collapsed()

"""Deoptimization of the Filter-C bytecode tier under the debugger.

The §V mechanism applied to the substrate: with nothing armed, actors
run the bytecode VM; arming any statement/call/return breakpoint pushes
the capability change to every live interpreter *immediately* (not one
dispatch late) and the VM descends into the resumable interpreter at
the next statement boundary — so a breakpoint planted while a VM WORK
body is mid-flight still hits on the right line with a full backtrace.
"""

from repro.dbg import StopKind
from repro.pedf.api import SYM_POP

from .util import LINE_PUSH, LINE_READ_INPUT, WORK_F1, make_session


def live_interps(runtime):
    return [
        a.interp
        for a in runtime.all_actors()
        if getattr(a, "interp", None) is not None
    ]


def test_capability_changes_push_to_live_interpreters_eagerly():
    """Satellite regression: arm/disarm transitions refresh every live
    interpreter synchronously — no dispatch needed in between."""
    dbg, runtime, _, _ = make_session([1, 2, 3])
    interps = live_interps(runtime)
    assert interps and all(i._fast_ok for i in interps)

    bp = dbg.break_source(f"the_source.c:{LINE_READ_INPUT}")
    # no scheduler dispatch has happened, yet every interpreter deopted
    assert all(not i._fast_ok for i in interps)

    dbg.delete(bp.id)
    assert all(i._fast_ok for i in interps)


def test_overlapping_arms_keep_interpreters_deoptimized():
    dbg, runtime, _, _ = make_session([1, 2])
    interps = live_interps(runtime)
    bp1 = dbg.break_source(f"the_source.c:{LINE_READ_INPUT}")
    bp2 = dbg.break_source(f"the_source.c:{LINE_PUSH}")
    assert all(not i._fast_ok for i in interps)
    dbg.delete(bp1.id)
    # one statement breakpoint still armed: stay deoptimized
    assert all(not i._fast_ok for i in interps)
    dbg.delete(bp2.id)
    assert all(i._fast_ok for i in interps)


def test_data_breakpoints_do_not_deoptimize():
    """API/catch breakpoints ride the event bus — the bytecode tier keeps
    running (that is the whole point of actor-specific capture)."""
    dbg, runtime, _, _ = make_session([1, 2])
    dbg.break_api(SYM_POP, phase="entry")
    assert all(i._fast_ok for i in live_interps(runtime))


def test_breakpoint_armed_mid_compiled_work_deopts_and_hits():
    """Arm a source breakpoint while a *bytecode* WORK body is suspended
    mid-function: execution must deopt and stop on the right line with a
    correct backtrace."""
    dbg, runtime, _, sink = make_session([5, 6])

    # stop inside WORK at a genuine blocking point (a pop api event)
    # without arming any statement capability — WORK runs on the VM
    api_bp = dbg.break_api(SYM_POP, phase="entry", actor="AModule.filter_1")
    ev = dbg.run()
    assert ev.kind == StopKind.API_BP
    actor = dbg.selected_actor
    assert actor is not None and actor.interp is not None
    interp = actor.interp
    assert interp._fast_ok, "tier should still be bytecode at an api stop"
    assert interp._vm_unit is not None, "bytecode tier never engaged"
    assert interp.frames, "stopped mid-WORK, a frame must be live"
    assert getattr(interp.frame, "vm", None) is not None, "WORK is not on the VM"

    # now plant a source breakpoint further down the same WORK body
    dbg.delete(api_bp.id)
    dbg.break_source(f"the_source.c:{LINE_PUSH}")
    assert not interp._fast_ok, "arming must deoptimize the live interpreter"

    ev = dbg.cont()
    assert ev.kind == StopKind.BREAKPOINT
    frame = dbg.current_frame()
    assert frame is not None
    assert frame.line == LINE_PUSH
    assert frame.func.name == WORK_F1 or frame.func.name.endswith("work_function")

    # the deoptimized run still completes with the right outputs
    # (filter_1 then filter_2 each compute v*2 + attribute, attribute=1)
    while not dbg.finished:
        dbg.cont()
    assert sorted(sink.values) == [4 * 5 + 3, 4 * 6 + 3]


def test_deopt_reoptimizes_after_disarm():
    """After the breakpoint is deleted, the next WORK activation returns
    to the bytecode tier."""
    dbg, runtime, _, sink = make_session([3, 4])
    bp = dbg.break_source(f"the_source.c:{LINE_READ_INPUT}")
    ev = dbg.run()
    assert ev.kind == StopKind.BREAKPOINT
    interp = dbg.selected_actor.interp
    assert not interp._fast_ok
    dbg.delete(bp.id)
    assert interp._fast_ok
    while not dbg.finished:
        dbg.cont()
    assert interp._vm_unit is not None, "fast tier did not re-engage"
    assert len(sink.values) == 2

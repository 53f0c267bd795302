"""The bytecode tier under the debugger: ISA surface and tier descent.

The default tier is the VM: ISA breakpoints, register watchpoints and
``stepi`` ride CAP_ISA (never deoptimizing), while statement-level
arming forces the vm → tree descent mid-function with correct lines and
backtraces.
"""

from repro.dbg import StopKind
from repro.dbg.cli import CommandCli
from repro.pedf.api import SYM_POP

from .util import LINE_PUSH, LINE_READ_INPUT, WORK_F1, make_session


def make_vm_session(values=(1, 2, 3, 4)):
    """A session on the default tier, which runs the bytecode VM."""
    dbg, runtime, source, sink = make_session(values)
    assert runtime.config.interp_tier == "auto"
    return dbg, runtime, source, sink


def live_interps(runtime):
    return [
        a.interp
        for a in runtime.all_actors()
        if getattr(a, "interp", None) is not None
    ]


# --------------------------------------------------------- ISA breakpoints


def test_isa_breakpoint_stops_at_exact_pc():
    dbg, runtime, _, sink = make_vm_session()
    bp = dbg.break_isa(f"{WORK_F1}+4")
    ev = dbg.run()
    assert ev.kind == StopKind.ISA_BP
    assert ev.bp_id == bp.id
    act = dbg.vm_activation()
    assert act is not None and act.vmf.name == WORK_F1 and act.pc == 4

    # the frame behind the activation reports the right source line
    frame = dbg.current_frame()
    assert frame is not None and frame.line == act.line()

    dbg.delete(bp.id)
    while not dbg.finished:
        dbg.cont()
    assert len(sink.values) == 4


def test_isa_breakpoints_never_deoptimize():
    dbg, runtime, _, _ = make_vm_session()
    interps = live_interps(runtime)
    dbg.break_isa(f"{WORK_F1}+4")
    assert all(i._fast_ok for i in interps), "CAP_ISA must not drop the tier"
    assert all(i._isa_armed for i in interps)


def test_bad_isa_locations_rejected():
    import pytest

    from repro.errors import DebuggerError

    dbg, _, _, _ = make_vm_session()
    with pytest.raises(DebuggerError, match="FUNC\\+PC"):
        dbg.break_isa("no_plus_sign")
    with pytest.raises(DebuggerError, match="no function symbol"):
        dbg.break_isa("nosuchfunc+3")


# ------------------------------------------------------------------- stepi


def test_stepi_advances_one_instruction_on_vm_frames():
    dbg, _, _, _ = make_vm_session()
    bp = dbg.break_isa(f"{WORK_F1}+4")
    assert dbg.run().kind == StopKind.ISA_BP
    interp = dbg.selected_actor.interp

    ev = dbg.stepi()
    assert ev.kind == StopKind.STEP
    assert dbg.vm_activation().pc == 5
    ev = dbg.stepi()
    assert ev.kind == StopKind.STEP
    assert dbg.vm_activation().pc == 6
    # instruction stepping kept the bytecode tier resident throughout
    assert interp._fast_ok


def test_register_watchpoint_reports_old_and_new():
    dbg, _, _, _ = make_vm_session()
    wp = dbg.watch_register(WORK_F1, 3)
    ev = dbg.run()
    assert ev.kind == StopKind.REGISTER_WATCH
    assert ev.bp_id == wp.id
    assert "old = " in ev.message and "new = " in ev.message


# ----------------------------------------------------------- tier descent


def test_statement_breakpoint_mid_vm_work_descends_and_hits():
    """Arm a source breakpoint while a *bytecode* WORK body is suspended
    mid-function: the vm frame must materialize interpreter state and
    stop on the right line."""
    dbg, runtime, _, sink = make_vm_session((5, 6))

    api_bp = dbg.break_api(SYM_POP, phase="entry", actor="AModule.filter_1")
    ev = dbg.run()
    assert ev.kind == StopKind.API_BP
    interp = dbg.selected_actor.interp
    assert interp._fast_ok, "tier should still be vm at an api stop"
    assert interp._vm_unit is not None, "vm tier never engaged"
    assert interp.frames and getattr(interp.frame, "vm", None) is not None

    dbg.delete(api_bp.id)
    dbg.break_source(f"the_source.c:{LINE_PUSH}")
    assert not interp._fast_ok, "arming must deoptimize the live interpreter"

    ev = dbg.cont()
    assert ev.kind == StopKind.BREAKPOINT
    frame = dbg.current_frame()
    assert frame is not None and frame.line == LINE_PUSH
    assert frame.func.name == WORK_F1

    while not dbg.finished:
        dbg.cont()
    assert sorted(sink.values) == [4 * 5 + 3, 4 * 6 + 3]


def test_vm_reoptimizes_after_disarm():
    dbg, runtime, _, sink = make_vm_session((3, 4))
    bp = dbg.break_source(f"the_source.c:{LINE_READ_INPUT}")
    assert dbg.run().kind == StopKind.BREAKPOINT
    interp = dbg.selected_actor.interp
    assert not interp._fast_ok
    dbg.delete(bp.id)
    assert interp._fast_ok
    while not dbg.finished:
        dbg.cont()
    assert interp._vm_unit is not None, "vm tier did not re-engage"
    assert len(sink.values) == 2


# ------------------------------------------------------------- CLI surface


def test_cli_disas_info_registers_and_breaki():
    dbg, _, _, _ = make_vm_session()
    cli = CommandCli(dbg)
    assert cli.execute(f"breaki {WORK_F1}+4") == [
        f"ISA breakpoint 1 at {WORK_F1}+4"
    ]
    ev = dbg.run()
    assert ev.kind == StopKind.ISA_BP

    listing = cli.execute("disas")
    assert any(line.startswith("=>") for line in listing), listing
    assert any("; line" in line for line in listing), listing

    regs = cli.execute("info registers")
    assert any("r0" in line for line in regs)
    assert any("(" in line for line in regs), "named registers missing"

    out = cli.execute("stepi")
    assert any("Step" in line for line in out)


def test_cli_rwatch_and_errors():
    dbg, _, _, _ = make_vm_session()
    cli = CommandCli(dbg)
    out = cli.execute(f"rwatch {WORK_F1} r3")
    assert out == [f"Register watchpoint 1: r3 in {WORK_F1}"]
    ev = dbg.run()
    assert ev.kind == StopKind.REGISTER_WATCH

    bad = cli.execute("rwatch onlyonearg")
    assert bad and bad[0].startswith("error:")
    bad = cli.execute("breaki badspec")
    assert bad and bad[0].startswith("error:")

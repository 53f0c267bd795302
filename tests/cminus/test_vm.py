"""The register-machine bytecode tier: compiler, assembler, emulator.

Complements the two-way differential suite in test_compile_tiers.py
with ISA-level checks: assembler/disassembler round-trips, the ``brk``
break instruction, per-opcode cycle telemetry and the register-state
debugging surface.
"""

import pytest

from repro.cminus import (
    DebugHook,
    Interpreter,
    NullEnvironment,
    analyze,
    parse_program,
    run_sync,
)
from repro.cminus.vm import assemble, call_vm, disassemble, isa, vm_unit
from repro.cminus.vm.asm import VmAsmError
from repro.cminus.vm.compiler import VmCompileError
from repro.sim.process import Suspend

CHECKSUM = """
S32 helper(S32 a, S32 b) {
    return a * 3 + b;
}

S32 checksum(S32 n) {
    S32 acc = 0;
    for (S32 i = 0; i < n; i++) {
        acc = acc ^ helper(i, n);
        if (acc > 1000) acc = acc % 997;
    }
    return acc;
}
"""


def build(source, tier="auto", fn=None):
    prog = parse_program(source, "<vm>")
    info = analyze(prog, None, source)
    interp = Interpreter(prog, info, env=NullEnvironment())
    interp.tier = tier
    return prog, interp


def run(interp, fn, args=()):
    return run_sync(interp.run_function(fn, list(args)))


# ------------------------------------------------------------ compilation


def test_vm_unit_compiles_and_matches_tree():
    prog, interp = build(CHECKSUM)
    vu = vm_unit(prog)
    assert vu.supports("checksum") and vu.supports("helper")
    assert not vu.failed
    got = run(interp, "checksum", (17,))
    _, slow = build(CHECKSUM, tier="slow")
    assert got == run(slow, "checksum", (17,))


def test_vm_unit_memoized_per_program():
    prog, _ = build(CHECKSUM)
    assert vm_unit(prog) is vm_unit(prog)


def test_unsupported_function_fails_gracefully():
    # struct-typed locals compile; unknown constructs must be recorded in
    # ``failed`` (per-function tolerance), never raised at unit build time
    src = CHECKSUM + "\nS32 user(S32 x) { return checksum(x); }\n"
    prog, interp = build(src)
    vu = vm_unit(prog)
    assert vu.supports("user")
    assert run(interp, "user", (9,)) == run(build(src, "slow")[1], "user", (9,))


def test_call_to_unlowered_callee_descends_to_the_tree(monkeypatch):
    """A VM ``call`` whose callee is absent from the unit runs that callee
    on the tree interpreter, one step down, and nothing else."""
    src = CHECKSUM + "\nS32 user(S32 x) { return checksum(x); }\n"
    prog, interp = build(src)
    vu = vm_unit(prog)
    vu.funcs.pop("helper")  # as if the compiler had failed on it
    vu.failed["helper"] = "simulated"
    interp._vm_unit = vu
    tree_calls = []
    call_user = Interpreter._call_user

    def recording(self, func, args, call_line):
        tree_calls.append(func.name)
        return call_user(self, func, args, call_line)

    monkeypatch.setattr(Interpreter, "_call_user", recording)
    got = run(interp, "user", (9,))
    assert tree_calls == ["helper"] * 9
    assert got == run(build(src, "slow")[1], "user", (9,))


# --------------------------------------------------------- asm round-trip


def test_disassemble_assemble_round_trip():
    prog, _ = build(CHECKSUM)
    vmf = vm_unit(prog).funcs["checksum"]
    text = disassemble(vmf)
    back = assemble(text)
    assert back.code == vmf.code
    assert back.consts == vmf.consts
    assert back.nregs == vmf.nregs
    assert back.name == vmf.name
    assert [p for p in back.params] == [p for p in vmf.params]
    assert back.deoptable is False


def test_assembled_function_executes():
    text = """
    .func double_plus ret S32
    .param x S32
    .reg 3
    addk r1, r0, 0, 4294967295, 2147483647, 4294967296
    add r2, r0, r1, 4294967295, 2147483647, 4294967296
    addk r2, r2, 1, 4294967295, 2147483647, 4294967296
    ret r2
    """
    vmf = assemble(text)
    prog, interp = build(CHECKSUM)
    interp._vm_unit = vm_unit(prog)
    interp._vm_unit.funcs["double_plus"] = vmf
    assert run_sync(call_vm(interp, "double_plus", [21])) == 43


def test_assembler_errors_carry_line_numbers():
    with pytest.raises(VmAsmError, match="line 1"):
        assemble("frobnicate r0, r1")
    with pytest.raises(VmAsmError, match="expects"):
        assemble("mov r0")
    with pytest.raises(VmAsmError, match="unknown param type"):
        assemble(".param x NotAType")


def test_disassembly_pretty_marks_pc_and_source():
    prog, _ = build(CHECKSUM)
    vmf = vm_unit(prog).funcs["checksum"]
    lines = CHECKSUM.splitlines()
    text = disassemble(vmf, pretty=True, source_lines=lines, pc=0)
    assert "=>" in text
    assert "; line" in text


# ------------------------------------------------------ break instruction


class BrkHook(DebugHook):
    capabilities = 0  # brk fires regardless of the capability mask

    def __init__(self):
        self.hits = []

    def on_isa_break(self, interp, act):
        self.hits.append((act.vmf.name, act.pc))
        return Suspend("brk")


def test_brk_instruction_suspends_and_resumes():
    text = """
    .func until_brk ret S32
    .param x S32
    .reg 2
    addk r1, r0, 1, 4294967295, 2147483647, 4294967296
    brk
    addk r1, r1, 1, 4294967295, 2147483647, 4294967296
    ret r1
    """
    vmf = assemble(text)
    prog, interp = build(CHECKSUM)
    interp.hook = BrkHook()
    interp.refresh_hook_caps()
    interp._vm_unit = vm_unit(prog)
    interp._vm_unit.funcs["until_brk"] = vmf

    gen = call_vm(interp, "until_brk", [40])
    req = next(gen)
    assert isinstance(req, Suspend) and req.reason == "brk"
    assert interp.hook.hits == [("until_brk", 1)]
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == 42


def test_brkc_is_conditional():
    text = """
    .func maybe_brk ret S32
    .param x S32
    .reg 2
    eqk r1, r0, 7
    brkc r1
    ret r0
    """
    vmf = assemble(text)
    prog, interp = build(CHECKSUM)
    interp.hook = BrkHook()
    interp.refresh_hook_caps()
    interp._vm_unit = vm_unit(prog)
    interp._vm_unit.funcs["maybe_brk"] = vmf

    assert run_sync(call_vm(interp, "maybe_brk", [3])) == 3  # predicate false
    assert interp.hook.hits == []
    gen = call_vm(interp, "maybe_brk", [7])
    req = next(gen)
    assert isinstance(req, Suspend) and req.reason == "brk"


# ------------------------------------------------------- opcode telemetry


class CountingHook(DebugHook):
    capabilities = DebugHook.CAP_TELEMETRY


def test_opcode_cycles_counted_only_under_telemetry():
    _, interp = build(CHECKSUM)
    run(interp, "checksum", (11,))
    assert interp.opcode_cycles == {}

    _, counted = build(CHECKSUM)
    counted.hook = CountingHook()
    counted.refresh_hook_caps()
    run(counted, "checksum", (11,))
    assert counted.opcode_cycles, "telemetry armed but no opcodes counted"
    # costs follow the ISA cost table; stmt boundaries are free
    assert all(isa.COST[op] > 0 for op in counted.opcode_cycles)
    assert isa.STMT not in counted.opcode_cycles


def test_opcode_cycles_do_not_change_timed_stream():
    """CAP_TELEMETRY's per-opcode attribution must not perturb the
    batched Delay flushes (replay fingerprints stay byte-identical)."""

    def timed_reqs(hook):
        prog = parse_program(CHECKSUM, "<vm>")
        info = analyze(prog, None, CHECKSUM)
        interp = Interpreter(prog, info, env=NullEnvironment(), timed=True)
        if hook is not None:
            interp.hook = hook
            interp.refresh_hook_caps()
        reqs = []
        gen = interp.run_function("checksum", [25])
        try:
            req = next(gen)
            while True:
                reqs.append((type(req).__name__, getattr(req, "cycles", None)))
                req = gen.send(None)
        except StopIteration as stop:
            return reqs, stop.value

    plain = timed_reqs(None)
    counted = timed_reqs(CountingHook())
    assert plain == counted


# -------------------------------------------------- register-state surface


def test_activation_registers_expose_named_locals():
    prog, interp = build(CHECKSUM)
    vu = vm_unit(prog)
    vmf = vu.funcs["checksum"]
    assert any(nm == "acc" for nm in vmf.reg_names.values())
    # param registers come first
    assert vmf.reg_names.get(0) == "n"


def test_line_table_maps_pcs_to_source_lines():
    prog, _ = build(CHECKSUM)
    vmf = vm_unit(prog).funcs["checksum"]
    lines = {vmf.line_at(pc) for pc in range(len(vmf.code))}
    assert len(lines) > 1, "line table degenerate"
    stmt_lines = [ins[1] for ins in vmf.code if ins[0] == isa.STMT]
    assert stmt_lines and all(ln > 0 for ln in stmt_lines)

"""Register-machine bytecode tier for Filter-C (the PE ISA).

Layout:

- :mod:`~repro.cminus.vm.isa` — opcodes, operand specs, cycle costs;
- :mod:`~repro.cminus.vm.compiler` — AST → :class:`VmFunction` lowering
  (register allocation, constant pool, boundary/line/scope-shape tables);
- :mod:`~repro.cminus.vm.emulator` — the dispatch-loop generator that
  runs as the fast interpreter tier (``tier == "auto"``);
- :mod:`~repro.cminus.vm.asm` — textual assembler/disassembler.
"""

from . import isa
from .asm import assemble, disassemble
from .compiler import VmCompileError, VmFunction, VmUnit, vm_unit
from .emulator import Activation, call_vm

__all__ = [
    "isa",
    "assemble",
    "disassemble",
    "VmCompileError",
    "VmFunction",
    "VmUnit",
    "vm_unit",
    "Activation",
    "call_vm",
]

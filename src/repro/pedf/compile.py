"""Filter-C compilation of actor sources, with PEDF symbol mangling.

The paper's qualitative analysis (§VI-F) highlights that framework symbols
are *mangled*: filter ``Ipf``'s WORK method is the symbol
``IpfFilter_work_function`` while controller ``pred_controller``'s is
``_component_PredModule_anon_0_work``.  We reproduce that mangling so the
dataflow debugger demonstrably adds value over raw symbol names.

Mangling is a per-actor symbol map (canonical → mangled), not a rewrite
of the program: actors whose source and compilation context are equal
share one analysed program and its bytecode unit
(:func:`repro.cminus.frontend.compile_unit`), and each instance sees its
own names through its map — in its debug info, frames, breakpoints and
messages.
"""

from __future__ import annotations

from ..cminus.frontend import compile_unit
from ..cminus.sema import ActorContext, IfaceSig
from ..errors import PedfError
from .decls import ActorDeclBase, ControllerDecl, FilterDecl, ModuleDecl


def _camel(name: str) -> str:
    """``ipf`` → ``Ipf``; ``pred_controller`` → ``PredController``;
    existing capitals are preserved (``AModule`` → ``AModule``)."""
    return "".join(part[0].upper() + part[1:] for part in name.split("_") if part)


def mangle_filter_symbol(instance_name: str) -> str:
    return f"{_camel(instance_name)}Filter_work_function"


def mangle_filter_prefix(instance_name: str) -> str:
    return f"{_camel(instance_name)}Filter_"


def mangle_controller_symbol(module_name: str) -> str:
    return f"_component_{_camel(module_name)}Module_anon_0_work"


def mangle_controller_prefix(module_name: str) -> str:
    return f"_component_{_camel(module_name)}Module_anon_0_"


def compile_actor(decl: ActorDeclBase, module: ModuleDecl, structs=None) -> None:
    """Compile one actor's Filter-C source and build its symbol map.

    Fills ``decl.cprogram`` (shared with every actor compiled from the
    same source and context), ``decl.symbols`` (canonical → mangled),
    ``decl.debug_info`` (the shared debug info under the mangled names)
    and ``decl.work_symbol``.  ``structs`` are shared application-level
    struct types.  Idempotent: recompiling an already-compiled
    declaration is a no-op.
    """
    if decl.cprogram is not None:
        return
    filename = decl.source_name or f"{module.name}/{decl.name}.c"
    decl.source_name = filename

    if isinstance(decl, ControllerDecl):
        work_symbol = mangle_controller_symbol(module.name)
        prefix = mangle_controller_prefix(module.name)
    else:
        work_symbol = mangle_filter_symbol(decl.name)
        prefix = mangle_filter_prefix(decl.name)

    unit = compile_unit(decl.source, filename, _actor_context(decl, module, structs))
    program = unit.program
    if program.function("work") is None:
        raise PedfError(f"actor {module.name}.{decl.name}: source defines no work() method")
    decl.symbols = {
        f.name: (work_symbol if f.name == "work" else prefix + f.name)
        for f in program.functions
    }
    decl.cprogram = program
    decl.debug_info = unit.view(decl.symbols)
    decl.work_symbol = work_symbol


def _actor_context(decl: ActorDeclBase, module: ModuleDecl, structs=None) -> ActorContext:
    ctx = ActorContext(kind=decl.kind)
    if structs:
        ctx.structs = dict(structs)
    for iface in decl.ifaces.values():
        ctx.ifaces[iface.name] = IfaceSig(iface.name, iface.direction, iface.ctype)
    if isinstance(decl, FilterDecl):
        ctx.data = dict(decl.data)
        ctx.attributes = {name: ctype for name, (ctype, _value) in decl.attributes.items()}
    if isinstance(decl, ControllerDecl):
        ctx.actor_names = set(module.filters)
    return ctx


def compile_program(program: "ProgramDecl") -> None:
    """Compile every actor in a program declaration."""
    from .decls import ProgramDecl  # local import to avoid a cycle at import time

    assert isinstance(program, ProgramDecl)
    for module in program.modules.values():
        if module.controller is not None:
            compile_actor(module.controller, module, program.structs)
        for filt in module.filters.values():
            compile_actor(filt, module, program.structs)

"""Actor compilation and symbol mangling."""

import pytest

from repro.apps.amodule import build_amodule_program
from repro.errors import PedfError
from repro.pedf import (
    ControllerDecl,
    FilterDecl,
    ModuleDecl,
    compile_actor,
    mangle_controller_symbol,
    mangle_filter_symbol,
)
from repro.pedf.compile import compile_program
from repro.cminus.typesys import U32


def test_mangling_matches_paper_examples():
    # paper §VI-F: "filter Ipf WORK method correspond to the symbol
    # IpfFilter_work_function whereas controller pred_controller WORK
    # method is _component_PredModule_anon_0_work"
    assert mangle_filter_symbol("ipf") == "IpfFilter_work_function"
    assert mangle_controller_symbol("pred") == "_component_PredModule_anon_0_work"
    assert mangle_filter_symbol("ipred") == "IpredFilter_work_function"


def test_compile_renames_work_and_helpers():
    module = ModuleDecl(name="m")
    f = FilterDecl(name="ipf", source="""
    U32 helper(U32 x) { return x + 1; }
    void work() {
        pedf.io.out[0] = helper(pedf.io.in_[0]);
    }
    """)
    f.add_iface("in_", "input", U32)
    f.add_iface("out", "output", U32)
    module.add_filter(f)
    compile_actor(f, module)
    assert f.work_symbol == "IpfFilter_work_function"
    names = set(f.symbols.values())
    assert names == {"IpfFilter_work_function", "IpfFilter_helper"}
    # mangling is a symbol map: the (shareable) program keeps the source's
    # names, and the actor's debug info carries the mangled ones
    assert {fn.name for fn in f.cprogram.functions} == {"work", "helper"}
    assert "IpfFilter_helper" in f.debug_info.functions


def test_controller_compiled_with_actor_validation():
    module = ModuleDecl(name="pred")
    ctl = ControllerDecl(name="ctl", source="void work() { ACTOR_FIRE(nope); }")
    module.set_controller(ctl)
    with pytest.raises(Exception) as e:
        compile_actor(ctl, module)
    assert "unknown actor" in str(e.value)


def test_missing_work_method_rejected():
    module = ModuleDecl(name="m")
    f = FilterDecl(name="f", source="void notwork() { }")
    module.add_filter(f)
    with pytest.raises(PedfError) as e:
        compile_actor(f, module)
    assert "no work()" in str(e.value)


def test_compile_is_idempotent():
    program = build_amodule_program()
    compile_program(program)
    before = program.modules["AModule"].filters["filter_1"].cprogram
    compile_program(program)
    assert program.modules["AModule"].filters["filter_1"].cprogram is before


def test_amodule_program_validates():
    program = build_amodule_program()
    compile_program(program)
    program.validate()  # no exception


def test_validation_rejects_type_mismatch():
    from repro.cminus.typesys import U8

    program = build_amodule_program()
    module = program.modules["AModule"]
    # sabotage: retype one end of a binding
    module.filters["filter_2"].ifaces["an_input"].ctype = U8
    compile_program(program)
    with pytest.raises(PedfError) as e:
        program.validate()
    assert "type mismatch" in str(e.value)


def test_validation_rejects_double_binding():
    program = build_amodule_program()
    module = program.modules["AModule"]
    module.bind("filter_1", "an_output", "filter_2", "an_input")  # duplicate
    compile_program(program)
    with pytest.raises(PedfError) as e:
        program.validate()
    assert "bound more than once" in str(e.value)


def test_module_without_controller_rejected():
    from repro.pedf import ProgramDecl

    program = ProgramDecl(name="p")
    program.add_module(ModuleDecl(name="m"))
    with pytest.raises(PedfError) as e:
        program.validate()
    assert "no controller" in str(e.value)

"""The front-end compile cache: lex/parse/sema memoized by source digest.

Replay re-executions and timeline forks rebuild the whole application
from scratch — the cache makes the second and every later rebuild reuse
the analyzed program, and lets every instance of one source share it and
its bytecode unit (memoized per Program object).
"""

import pytest

from repro.cminus import frontend_cache
from repro.cminus.frontend import FrontendCache, type_signature
from repro.cminus.typesys import S32, U8, U32, ArrayType, StructType
from repro.pedf.compile import compile_actor
from repro.pedf.decls import FilterDecl, ModuleDecl


SRC = """\
void work() {
    U32 v = pedf.io.an_input[0];
    pedf.io.an_output[0] = v + 1;
}
"""


def make_decl(name="filt", source=SRC):
    decl = FilterDecl(name=name, source=source)
    decl.add_iface("an_input", "input", U32)
    decl.add_iface("an_output", "output", U32)
    return decl


def make_module(name="m"):
    return ModuleDecl(name=name)


@pytest.fixture(autouse=True)
def clean_cache():
    frontend_cache.clear()
    yield
    frontend_cache.clear()


def test_identical_sources_share_one_program():
    module = make_module()
    d1, d2 = make_decl("filt"), make_decl("filt")
    compile_actor(d1, module)
    compile_actor(d2, module)
    assert frontend_cache.hits == 1 and frontend_cache.misses == 1
    # same source + same context → the same analyzed program; same
    # instance name → the same symbol map and debug-info view
    assert d1.cprogram is d2.cprogram
    assert d1.debug_info is d2.debug_info
    assert d1.work_symbol == d2.work_symbol


def test_instances_of_one_source_share_one_program():
    """Mangling is a per-actor symbol map, not part of the key: two
    instances of one source share the analysed program, yet keep their
    own symbols."""
    module = make_module()
    d1, d2 = make_decl("alpha"), make_decl("beta")
    d1.source_name = d2.source_name = "stage.c"
    compile_actor(d1, module)
    compile_actor(d2, module)
    assert frontend_cache.hits == 1 and frontend_cache.misses == 1
    assert d1.cprogram is d2.cprogram
    assert (d1.work_symbol, d2.work_symbol) == (
        "AlphaFilter_work_function", "BetaFilter_work_function"
    )
    assert set(d1.debug_info.functions) == {"AlphaFilter_work_function"}
    assert set(d2.debug_info.functions) == {"BetaFilter_work_function"}


def test_different_sources_do_not_collide():
    module = make_module()
    d1 = make_decl("filt")
    d2 = make_decl("filt", source=SRC.replace("v + 1", "v + 2"))
    compile_actor(d1, module)
    compile_actor(d2, module)
    assert frontend_cache.misses == 2
    assert d1.cprogram is not d2.cprogram


def test_rebuild_hits_the_cache():
    """The replay scenario: a fresh declaration tree, same sources."""
    compile_actor(make_decl(), make_module())
    assert frontend_cache.stats() == (1, 0, 1)
    compile_actor(make_decl(), make_module())
    compile_actor(make_decl(), make_module())
    assert frontend_cache.stats() == (1, 2, 1)


def test_clear_resets_everything():
    compile_actor(make_decl(), make_module())
    assert len(frontend_cache) == 1
    frontend_cache.clear()
    assert frontend_cache.stats() == (0, 0, 0)


def test_clear_drops_shared_programs_and_tier_units():
    """A cleared cache is a true cold launch: no program, tier unit or
    debug-info view compiled before it is handed out again."""
    from repro.cminus.vm.compiler import vm_unit

    d1 = make_decl()
    compile_actor(d1, make_module())
    vm_unit(d1.cprogram)
    frontend_cache.clear()
    d2 = make_decl()
    compile_actor(d2, make_module())
    assert frontend_cache.misses == 1
    assert d2.cprogram is not d1.cprogram
    assert d2.debug_info is not d1.debug_info
    assert getattr(d2.cprogram, "_vm_unit_cache", None) is None


def test_amodule_rebuild_reuses_programs():
    """End to end: rebuilding the demo app re-parses nothing."""
    from repro.apps.amodule import build_demo

    build_demo([1, 2])
    misses_first = frontend_cache.misses
    assert misses_first > 0
    hits_before = frontend_cache.hits
    build_demo([3, 4])
    assert frontend_cache.misses == misses_first, "rebuild re-parsed a source"
    assert frontend_cache.hits > hits_before


def test_type_signature_distinguishes_struct_layouts():
    a = StructType("Pt", [("x", S32), ("y", S32)])
    b = StructType("Pt", [("x", S32), ("y", U8)])
    assert type_signature(a) != type_signature(b)
    assert type_signature(ArrayType(S32, 4)) != type_signature(ArrayType(S32, 5))


def test_cache_is_a_plain_memo():
    cache = FrontendCache()
    key = cache.digest("src", "f.c", "salt")
    assert cache.get(key) is None
    cache.put(key, ("x",))
    assert cache.get(key) == ("x",)
    assert cache.stats() == (1, 1, 1)
    assert key != cache.digest("src", "f.c", "other-salt")

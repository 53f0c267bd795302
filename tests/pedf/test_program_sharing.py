"""Actors compiled from one source share one analysed program.

Mangling (paper §VI-F) is a per-actor symbol map, so two instances of
one source share the Program, its bytecode unit and the canonical debug
info — yet every name a user sees stays the instance's own: breakpoints,
backtraces, ISA locations, ``disas`` listings and profiler call paths.
Mutable globals stay per instance (interpreters copy them at init).
"""

import pytest

from repro.apps.synthetic import (
    build_synthetic_pipeline,
    build_synthetic_program,
    lcg_reference,
    synthetic_hosts,
)
from repro.cminus import frontend_cache
from repro.cminus.typesys import U32
from repro.core import DataflowSession
from repro.dbg import CommandCli, Debugger, StopKind
from repro.p2012.soc import P2012Platform, PlatformConfig
from repro.pedf.decls import ControllerDecl, FilterDecl, ModuleDecl, ProgramDecl
from repro.pedf.runtime import PedfRuntime, RuntimeConfig
from repro.sim.kernel import Scheduler
from repro.sim.sharding import (
    ProcPoolRun,
    PushStreamRecorder,
    fingerprint_streams,
    partition_program,
)

#: one stage of the pipeline; ``fired`` counts this instance's firings,
#: and ``bump``'s loop costs enough cycles to be charged inside it
STAGE_SOURCE = """\
// stage.c
U32 fired = 0;
U32 bump(U32 x) {
    fired = fired + 1;
    for (U32 k = 0; k < 40; k++) {
        x = x + 0;
    }
    return x + fired;
}
void work() {
    U32 v = pedf.io.i[0];
    pedf.io.o[0] = bump(v);
}
"""
LINE_BUMP_BODY = 4

CONTROLLER_SOURCE = """\
void work() {
    ACTOR_FIRE(alpha);
    ACTOR_FIRE(beta);
    WAIT_FOR_ACTOR_SYNC();
}
"""

VALUES = [10, 20, 30]
#: alpha adds 1, 2, 3 on its firings; beta, with its own counter, too
EXPECTED = [v + 2 * (k + 1) for k, v in enumerate(VALUES)]

ALPHA_WORK = "AlphaFilter_work_function"
BETA_WORK = "BetaFilter_work_function"


@pytest.fixture(autouse=True)
def clean_cache():
    frontend_cache.clear()
    yield
    frontend_cache.clear()


def _stage(name):
    f = FilterDecl(name=name, source=STAGE_SOURCE, source_name="stage.c")
    f.add_iface("i", "input", U32)
    f.add_iface("o", "output", U32)
    return f


def build_twins(tier="auto"):
    """source → alpha → beta → sink, both filters from ``stage.c``."""
    program = ProgramDecl(name="twins")
    module = ModuleDecl(name="m")
    module.set_controller(
        ControllerDecl(name="ctl", source=CONTROLLER_SOURCE, max_steps=len(VALUES))
    )
    module.add_filter(_stage("alpha"))
    module.add_filter(_stage("beta"))
    module.add_iface("in", "input", U32)
    module.add_iface("out", "output", U32)
    module.bind("this", "in", "alpha", "i")
    module.bind("alpha", "o", "beta", "i", capacity=0)
    module.bind("beta", "o", "this", "out", capacity=0)
    program.add_module(module)
    sched = Scheduler()
    platform = P2012Platform(sched, PlatformConfig(n_clusters=1, pes_per_cluster=4))
    runtime = PedfRuntime(sched, platform, program, config=RuntimeConfig(interp_tier=tier))
    runtime.add_source("src", "m", "in", VALUES, capacity=0)
    sink = runtime.add_sink("snk", "m", "out", expect=len(VALUES))
    return sched, runtime, sink


def _filters(runtime):
    module = runtime.modules["m"]
    return module.filters["alpha"], module.filters["beta"]


def _run_to_exit(dbg):
    stops = [dbg.run()]
    while stops[-1].kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        stops.append(dbg.cont())
    assert stops[-1].kind == StopKind.EXITED, stops[-1]
    return stops[:-1]


# ------------------------------------------------------------ the contract


def test_two_instances_share_one_program_but_keep_their_symbols():
    sched, runtime, sink = build_twins()
    alpha, beta = _filters(runtime)
    # one miss for the controller, one for stage.c — shared by both stages
    assert frontend_cache.misses == 2
    assert alpha.decl.cprogram is beta.decl.cprogram
    assert alpha.work_symbol == ALPHA_WORK and beta.work_symbol == BETA_WORK
    assert set(alpha.decl.debug_info.functions) == {ALPHA_WORK, "AlphaFilter_bump"}
    assert set(beta.decl.debug_info.functions) == {BETA_WORK, "BetaFilter_bump"}
    # the views share everything but the function table
    assert alpha.decl.debug_info.line_table is beta.decl.debug_info.line_table
    assert alpha.decl.debug_info.sources is beta.decl.debug_info.sources


def test_auto_and_slow_runs_share_one_program():
    """The tier is not part of the front-end key: a slow run reuses the
    Program an auto run built, and the lazily memoized bytecode unit on
    it is consulted only by the auto tier."""
    _sched, auto_rt, auto_sink = build_twins()
    misses = frontend_cache.misses
    _sched, slow_rt, slow_sink = build_twins(tier="slow")
    assert frontend_cache.misses == misses
    auto_alpha, _ = _filters(auto_rt)
    slow_alpha, _ = _filters(slow_rt)
    assert slow_alpha.decl.cprogram is auto_alpha.decl.cprogram
    _run_to_exit(Debugger(auto_rt.scheduler, auto_rt))
    _run_to_exit(Debugger(slow_rt.scheduler, slow_rt))
    assert [t.value for t in auto_sink.received] == EXPECTED
    assert [t.value for t in slow_sink.received] == EXPECTED
    assert auto_alpha.interp._vm_unit is not None
    assert slow_alpha.interp._vm_unit is None


def test_mutable_global_stays_per_instance():
    sched, runtime, sink = build_twins()
    _run_to_exit(Debugger(sched, runtime))
    assert [t.value for t in sink.received] == EXPECTED
    for actor in _filters(runtime):
        assert actor.interp.globals["fired"].data == len(VALUES)


def test_function_breakpoint_stops_only_its_instance():
    sched, runtime, sink = build_twins()
    dbg = Debugger(sched, runtime)
    dbg.break_function(ALPHA_WORK)
    stops = _run_to_exit(dbg)
    assert [ev.kind for ev in stops] == [StopKind.FUNCTION_BP] * len(VALUES)
    assert {ev.actor for ev in stops} == {"m.alpha"}
    assert {ev.message for ev in stops} == {ALPHA_WORK}
    assert [t.value for t in sink.received] == EXPECTED


def test_backtrace_shows_each_instance_name():
    sched, runtime, _sink = build_twins(tier="slow")
    dbg = Debugger(sched, runtime)
    cli = CommandCli(dbg)
    cli.execute(f"break stage.c:{LINE_BUMP_BODY}")
    seen = {}
    ev = dbg.run()
    while ev.kind == StopKind.BREAKPOINT:
        camel = {"m.alpha": "Alpha", "m.beta": "Beta"}[ev.actor]
        bt = cli.execute("bt")
        assert bt[0].startswith(f"*#0  {camel}Filter_bump () at stage.c:{LINE_BUMP_BODY}")
        assert bt[1].startswith(f" #1  {camel}Filter_work_function () at stage.c:")
        assert dbg.selected_actor.interp.capture_frames()[0][0] == f"{camel}Filter_work_function"
        seen[ev.actor] = seen.get(ev.actor, 0) + 1
        ev = dbg.cont()
    assert ev.kind == StopKind.EXITED, ev
    assert seen == {"m.alpha": len(VALUES), "m.beta": len(VALUES)}


def test_finish_reports_the_instance_symbol():
    sched, runtime, _sink = build_twins(tier="slow")
    dbg = Debugger(sched, runtime)
    dbg.break_function("BetaFilter_bump")
    ev = dbg.run()
    assert ev.kind == StopKind.FUNCTION_BP and ev.actor == "m.beta"
    ev = dbg.finish()
    assert ev.kind == StopKind.FINISH
    assert ev.message.startswith("BetaFilter_bump returned")


def test_vm_breaki_and_disas_resolve_per_instance():
    sched, runtime, sink = build_twins()
    dbg = Debugger(sched, runtime)
    cli = CommandCli(dbg)
    assert cli.execute(f"breaki {ALPHA_WORK}+0") == [f"ISA breakpoint 1 at {ALPHA_WORK}+0"]
    ev = dbg.run()
    assert ev.kind == StopKind.ISA_BP and ev.actor == "m.alpha"
    assert ev.message == f"{ALPHA_WORK}+0"
    act = dbg.vm_activation()
    assert act is not None and act.vmf.name == ALPHA_WORK
    listing = cli.execute("disas")
    assert listing[0] == f".func {ALPHA_WORK} ret void"
    assert any(line.startswith("=>") for line in listing), listing
    assert cli.execute(f"disas {ALPHA_WORK}")[0] == listing[0]
    # beta's symbol is not alpha's to disassemble
    assert cli.execute(f"disas {BETA_WORK}")[0].startswith("error:")
    dbg.select_actor("m.beta")
    assert cli.execute(f"disas {BETA_WORK}")[0] == f".func {BETA_WORK} ret void"
    dbg.select_actor("m.alpha")

    stops = [ev]
    while stops[-1].kind == StopKind.ISA_BP:
        stops.append(dbg.cont())
    assert stops[-1].kind == StopKind.EXITED
    assert {e.actor for e in stops[:-1]} == {"m.alpha"}
    assert len(stops) - 1 == len(VALUES)
    # one bytecode unit, run under each instance's names
    alpha, beta = _filters(runtime)
    assert alpha.interp._vm_unit is beta.interp._vm_unit
    assert alpha.interp._vm_funcs["work"].code is beta.interp._vm_funcs["work"].code
    assert beta.interp._vm_funcs["work"].name == BETA_WORK
    assert [t.value for t in sink.received] == EXPECTED


def test_vm_register_watchpoint_is_per_instance():
    sched, runtime, _sink = build_twins()
    dbg = Debugger(sched, runtime)
    cli = CommandCli(dbg)
    assert cli.execute("rwatch BetaFilter_bump r0") == [
        "Register watchpoint 1: r0 in BetaFilter_bump"
    ]
    ev = dbg.run()
    assert ev.kind == StopKind.REGISTER_WATCH and ev.actor == "m.beta"
    assert "in BetaFilter_bump" in ev.message


def test_profiler_paths_carry_mangled_names():
    sched, runtime, _sink = build_twins()
    session = DataflowSession(Debugger(sched, runtime))
    session.prof.enable()
    _run_to_exit(session.dbg)
    paths = {
        (actor, path) for actor, _tier, path in session.prof.profile.nodes
    }
    assert ("m.alpha", (ALPHA_WORK, "AlphaFilter_bump")) in paths
    assert ("m.beta", (BETA_WORK, "BetaFilter_bump")) in paths
    assert not any(name in ("work", "bump") for _a, path in paths for name in path)
    folded = "\n".join(session.prof.profile.collapsed())
    assert f"m.alpha;vm;{ALPHA_WORK};AlphaFilter_bump" in folded


# --------------------------------------------------------- synthetic graph


def test_synthetic_elaboration_compiles_each_source_once():
    sched, runtime, sinks = build_synthetic_pipeline([1, 2])
    # 100 controllers (their sources name their own filters) + lcg.c
    assert frontend_cache.misses == 101
    filters = [a for a in runtime.all_actors() if a.kind == "filter"]
    assert len(filters) == 900
    assert len({id(f.decl.cprogram) for f in filters}) == 1
    assert len({f.work_symbol for f in filters}) == 900


SMALL = dict(chains=2, modules_per_chain=2, filters_per_module=3)
SMALL_VALUES = [7, 0, 2**32 - 1, 12345]


def _tier_fingerprint(tier):
    sched, runtime, sinks = build_synthetic_pipeline(SMALL_VALUES, **SMALL)
    runtime.config.interp_tier = tier
    for actor in runtime.all_actors():
        interp = getattr(actor, "interp", None)
        if interp is not None:
            interp.tier = tier
    filters = [a for a in runtime.all_actors() if a.kind == "filter"]
    assert len({id(f.decl.cprogram) for f in filters}) == 1
    rec = PushStreamRecorder(runtime)
    _run_to_exit(Debugger(sched, runtime))
    golden = lcg_reference(SMALL_VALUES, SMALL["modules_per_chain"] * SMALL["filters_per_module"], 1)
    for sink in sinks:
        assert [t.value for t in sink.received] == golden
    return fingerprint_streams(dict(rec.streams))


def test_shared_programs_agree_across_tiers_and_the_process_pool():
    prints = {tier: _tier_fingerprint(tier) for tier in ("slow", "auto")}
    assert prints["slow"] == prints["auto"]

    program = build_synthetic_program(
        chains=SMALL["chains"],
        modules_per_chain=SMALL["modules_per_chain"],
        filters_per_module=SMALL["filters_per_module"],
        steps=len(SMALL_VALUES),
    )
    plan = partition_program(
        program, 2, hosts=synthetic_hosts(SMALL["chains"], SMALL["modules_per_chain"])
    )

    def builder(ctx):
        sched, runtime, _sinks = build_synthetic_pipeline(SMALL_VALUES, shard=ctx, **SMALL)
        return DataflowSession(Debugger(sched, runtime))

    pool = ProcPoolRun(plan, builder)
    assert pool.run() == "exited"
    assert pool.fingerprint() == prints["auto"]

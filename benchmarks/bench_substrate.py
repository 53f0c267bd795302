"""Substrate micro-benchmarks: the costs everything else is built on.

Not a paper artefact — these quantify the reproduction's own substrate
(kernel dispatch, FIFO transfer, Filter-C interpretation, event-bus
emission) so overhead numbers elsewhere can be put in context, and so
regressions in the hot paths show up.
"""

import threading

import pytest

from repro.cminus import Interpreter, NullEnvironment, analyze, parse_program, run_sync
from repro.cminus.interp import DebugHook
from repro.pedf.api import FrameworkEvent, FrameworkEventBus
from repro.sim import Delay, Fifo, Scheduler


def _fresh_stack(fn):
    """Run ``fn`` on a fresh thread and return its result.

    CPython ≥3.11 allocates Python frames in fixed-size data-stack
    chunks; recursion that oscillates across a chunk boundary pays an
    allocation per call, so recursive workloads (fib15 on the bytecode
    tier) can swing ~2x depending on how deep the *harness*
    stack happens to be when the measurement starts (pytest sits right
    in the pathological band).  A fresh thread starts with fresh chunks,
    making the measurement independent of harness stack depth — for
    every tier alike, so comparisons stay apples-to-apples.
    """
    box = []

    def trampoline():
        box.append(fn())

    t = threading.Thread(target=trampoline)
    t.start()
    t.join()
    if not box:
        raise RuntimeError("benchmark workload died on its thread")
    return box[0]


def test_kernel_dispatch_throughput(benchmark):
    """Cost of one process resume + timed requeue."""

    def run():
        sched = Scheduler()

        def proc():
            for _ in range(2000):
                yield Delay(1)

        sched.spawn(proc(), "p")
        sched.run()
        return sched

    sched = benchmark(run)
    assert sched.now == 2000


def test_fifo_transfer_throughput(benchmark):
    def run():
        sched = Scheduler()
        fifo = Fifo(sched, capacity=8)
        got = []

        def producer():
            for i in range(1000):
                yield from fifo.put(i)

        def consumer():
            for _ in range(1000):
                got.append((yield from fifo.get()))

        sched.spawn(producer(), "p")
        sched.spawn(consumer(), "c")
        sched.run()
        return got

    got = benchmark(run)
    assert len(got) == 1000


FIB_SRC = """
U32 fib(U32 n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
U32 main() { return fib(15); }
"""

LOOP_SRC = """
U32 main() {
    U32 s = 0;
    for (U32 i = 0; i < 5000; i++) {
        s = (s + i * 3) ^ (i >> 2);
    }
    return s;
}
"""


#: the CI bar on call-heavy code: with no debugger attached, the bytecode
#: tier must beat the per-statement resumable interpreter on fib15 by at
#: least this factor (recorded conservatively)
RECORDED_SPEEDUP_MARGIN = 2.0

#: the CI bar on the straight-line hot loop: the bytecode tier must beat
#: the resumable interpreter on loop5k by at least this factor (the former
#: 2.0x interpreter-to-closure and 1.5x closure-to-VM rungs, chained)
VM_SPEEDUP_MARGIN = 3.0


@pytest.mark.parametrize("tier", ["auto", "slow"])
@pytest.mark.parametrize("name,src,expected", [
    ("fib15", FIB_SRC, 610),
    ("loop5k", LOOP_SRC, None),
])
def test_interpreter_throughput(benchmark, name, src, expected, tier):
    prog = parse_program(src)
    info = analyze(prog, None, src)

    def work():
        interp = Interpreter(prog, info, env=NullEnvironment(), timed=False)
        interp.tier = tier
        return run_sync(interp.run_function("main")), interp.state.statements_executed

    (value, stmts) = benchmark(lambda: _fresh_stack(work))
    if expected is not None:
        assert value == expected
    assert stmts > 1000


def _best_of(fn, rounds=3, iterations=5):
    import time

    fn()  # warm-up (compiles the unit on the fast tier)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, (time.perf_counter() - t0) / iterations)
    return best


def test_compiled_tier_margin():
    """The bench-smoke acceptance bar, independent of pytest-benchmark
    (also runs under ``--benchmark-disable``): on call-heavy fib15 the
    no-debugger bytecode tier beats the interpreted tier by the recorded
    margin."""
    prog = parse_program(FIB_SRC)
    info = analyze(prog, None, FIB_SRC)

    def run(tier):
        interp = Interpreter(prog, info, env=NullEnvironment(), timed=False)
        interp.tier = tier
        value = run_sync(interp.run_function("main"))
        assert value == 610
        return value

    fast = _fresh_stack(lambda: _best_of(lambda: run("auto")))
    slow = _fresh_stack(lambda: _best_of(lambda: run("slow")))
    assert slow >= RECORDED_SPEEDUP_MARGIN * fast, (
        f"bytecode tier speedup {slow / fast:.2f}x below the recorded "
        f"{RECORDED_SPEEDUP_MARGIN}x margin (fast {fast:.4f}s, slow {slow:.4f}s)"
    )


def test_vm_tier_margin():
    """The bytecode-tier acceptance bar, independent of pytest-benchmark
    (also runs under ``--benchmark-disable``): on the straight-line hot
    loop the register VM beats the resumable interpreter by the recorded
    margin."""
    prog = parse_program(LOOP_SRC)
    info = analyze(prog, None, LOOP_SRC)

    def run(tier):
        interp = Interpreter(prog, info, env=NullEnvironment(), timed=False)
        interp.tier = tier
        return run_sync(interp.run_function("main"))

    assert run("auto") == run("slow")  # same value before we time anything
    vm = _fresh_stack(lambda: _best_of(lambda: run("auto")))
    slow = _fresh_stack(lambda: _best_of(lambda: run("slow")))
    assert slow >= VM_SPEEDUP_MARGIN * vm, (
        f"vm tier speedup {slow / vm:.2f}x below the recorded "
        f"{VM_SPEEDUP_MARGIN}x margin (vm {vm:.4f}s, slow {slow:.4f}s)"
    )


class _CapHook(DebugHook):
    """A hook with a fixed capability mask and no-op callbacks — models a
    debugger with nothing armed (caps=0) or only telemetry armed."""

    def __init__(self, caps: int):
        self.capabilities = caps


#: telemetry-off must stay within noise of the no-debugger row: the only
#: added hot-path work is one predicted branch per cost flush (one per
#: ~batch_cycles statements), far below timer noise; 1.5x absorbs CI jitter
TELEMETRY_OFF_NOISE_MARGIN = 1.5


def _timed_loop_runner(caps):
    """Build a closure running loop5k on a timed bytecode interpreter,
    with ``caps`` as the hook mask (None = no hook at all)."""
    prog = parse_program(LOOP_SRC)
    info = analyze(prog, None, LOOP_SRC)

    def run():
        hook = _CapHook(caps) if caps is not None else None
        interp = Interpreter(prog, info, env=NullEnvironment(), hook=hook, timed=True)
        run_sync(interp.run_function("main"))
        return interp

    return run


def test_telemetry_on_cycle_counting_row(benchmark):
    """The telemetry-on row: timed bytecode tier with CAP_TELEMETRY armed
    (the span builder's cost-attribution counter active)."""
    run = _timed_loop_runner(DebugHook.CAP_TELEMETRY)
    interp = benchmark(lambda: _fresh_stack(run))
    # the bit must not deoptimize, and the counter must actually count
    assert interp._fast_ok
    assert interp.cycles_flushed > 0


def test_telemetry_off_overhead_within_noise():
    """The acceptance gate (runs under ``--benchmark-disable`` too):
    with telemetry off, the timed bytecode tier costs the same as before
    the telemetry subsystem existed — within noise of the no-debugger
    row.  Sanity-checks that caps=0 really counts nothing."""
    baseline_run = _timed_loop_runner(None)  # no debugger at all
    off_run = _timed_loop_runner(0)  # debugger attached, nothing armed

    assert off_run().cycles_flushed == 0
    baseline = _fresh_stack(lambda: _best_of(baseline_run))
    off = _fresh_stack(lambda: _best_of(off_run))
    assert off <= TELEMETRY_OFF_NOISE_MARGIN * baseline, (
        f"telemetry-off overhead {off / baseline:.2f}x exceeds the "
        f"{TELEMETRY_OFF_NOISE_MARGIN}x noise margin "
        f"(no-debugger {baseline:.4f}s, telemetry-off {off:.4f}s)"
    )


#: profiler-off shares the telemetry-off discipline: the charge callable
#: lives *inside* the existing cycle-counting branch, so with CAP_PROFILE
#: clear the flush hot path is bit-for-bit the pre-profiler code; 1.5x
#: absorbs CI jitter
PROFILER_OFF_NOISE_MARGIN = 1.5


def test_profiler_on_attribution_row(benchmark):
    """The profiler-on row: timed bytecode tier with CAP_PROFILE armed
    and a live charge sink attributing every flushed cycle to an
    (actor, function, tier) call-tree node."""
    from repro.obs.prof import Profile

    prog = parse_program(LOOP_SRC)
    info = analyze(prog, None, LOOP_SRC)
    profile = Profile()

    def charge(interp, cycles):
        path = tuple(f.func.name for f in interp.frames) or ("<entry>",)
        profile.add("bench", "vm", path, cycles)

    def run():
        hook = _CapHook(DebugHook.CAP_PROFILE)
        hook.profile_sink = charge
        interp = Interpreter(prog, info, env=NullEnvironment(), hook=hook, timed=True)
        run_sync(interp.run_function("main"))
        return interp

    interp = benchmark(lambda: _fresh_stack(run))
    assert interp._fast_ok  # CAP_PROFILE never deoptimizes
    assert interp.cycles_flushed > 0
    assert profile.total > 0  # flushes were actually attributed


def test_profiler_off_overhead_within_noise():
    """The acceptance gate (runs under ``--benchmark-disable`` too):
    with the profiler off, the timed bytecode tier costs the same as the
    no-debugger row — the charge branch only exists inside the
    cycle-counting path, which caps=0 never enters."""
    baseline_run = _timed_loop_runner(None)  # no debugger at all
    off_run = _timed_loop_runner(0)  # debugger attached, nothing armed

    interp = off_run()
    assert interp._profile is None and interp.cycles_flushed == 0
    baseline = _fresh_stack(lambda: _best_of(baseline_run))
    off = _fresh_stack(lambda: _best_of(off_run))
    assert off <= PROFILER_OFF_NOISE_MARGIN * baseline, (
        f"profiler-off overhead {off / baseline:.2f}x exceeds the "
        f"{PROFILER_OFF_NOISE_MARGIN}x noise margin "
        f"(no-debugger {baseline:.4f}s, profiler-off {off:.4f}s)"
    )


#: monitors-off must stay within noise of a check-free run: with no
#: checks armed there is no "*" bus listener (framework calls stay
#: event-free via §V elision) and CAP_RV is clear, so the only residual
#: is a predicted branch; 1.5x absorbs CI jitter
RV_OFF_NOISE_MARGIN = 1.5


def _rle_session_runner(check=None, lifecycle=False):
    """Build a closure running the RLE app end to end, optionally with
    one armed check (``check``) or an armed-then-removed check
    (``lifecycle=True`` — exercises the subsystem, ends monitors-off)."""
    from repro.apps.rle import build_rle_pipeline
    from repro.core import DataflowSession
    from repro.dbg import Debugger, StopKind

    def run():
        sched, runtime, sink = build_rle_pipeline([5, 5, 5, 2, 7, 7])
        session = DataflowSession(Debugger(sched, runtime), stop_on_init=True)
        session.dbg.run()  # stop post-init so checks can resolve the graph
        if lifecycle:
            session.checks.remove(session.checks.add(
                "occupancy pack::o->expand::i <= 999999", action="log").id)
        if check is not None:
            session.checks.add(check, action="log")
        ev = session.dbg.cont()
        while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
            ev = session.dbg.cont()
        assert ev.kind == StopKind.EXITED
        return session

    return run


def test_rv_cap_bit_keeps_compiled_tier(benchmark):
    """The RV capability bit at the interpreter level: arming CAP_RV must
    not deoptimize the bytecode tier, and (unlike CAP_TELEMETRY) counts
    nothing — its statement-path cost is one predicted branch."""
    run = _timed_loop_runner(DebugHook.CAP_RV)
    interp = benchmark(lambda: _fresh_stack(run))
    assert interp._fast_ok
    assert interp._rv_armed
    assert interp.cycles_flushed == 0


def test_rv_monitors_on_link_occupancy_row(benchmark):
    """The monitors-on row: a full RLE run with one link-occupancy
    property armed (non-tripping bound — measures steady-state judging,
    not verdict construction)."""
    run = _rle_session_runner(check="occupancy pack::o->expand::i <= 999999")
    session = benchmark(lambda: _fresh_stack(run))
    assert session.checks.armed and not session.checks.verdicts
    # the bytecode tier stayed selected under the armed monitor
    for actor in session.dbg.runtime.all_actors():
        interp = getattr(actor, "interp", None)
        if interp is not None:
            assert interp._fast_ok


def test_rv_monitors_off_overhead_within_noise():
    """The acceptance gate (runs under ``--benchmark-disable`` too):
    a run that armed and removed a check — ending monitors-off — costs
    the same as a run that never touched the RV subsystem."""
    baseline_run = _rle_session_runner()
    off_run = _rle_session_runner(lifecycle=True)

    session = off_run()
    assert not session.checks.armed
    assert not session.dbg.hook.capabilities & DebugHook.CAP_RV  # fully retracted
    baseline = _fresh_stack(lambda: _best_of(baseline_run))
    off = _fresh_stack(lambda: _best_of(off_run))
    assert off <= RV_OFF_NOISE_MARGIN * baseline, (
        f"monitors-off overhead {off / baseline:.2f}x exceeds the "
        f"{RV_OFF_NOISE_MARGIN}x noise margin "
        f"(check-free {baseline:.4f}s, monitors-off {off:.4f}s)"
    )


def test_event_bus_emission(benchmark):
    """Cost of one event with and without listeners (the §V overhead's
    inner loop)."""
    bus = FrameworkEventBus()
    seen = []
    bus.subscribe("sym", lambda e: seen.append(e) or None)

    def run():
        for i in range(1000):
            bus.emit(FrameworkEvent("entry", "sym", {"i": i}))
        return len(seen)

    total = benchmark(run)
    assert total >= 1000


def test_event_bus_no_listeners(benchmark):
    bus = FrameworkEventBus()

    def run():
        for i in range(1000):
            bus.emit(FrameworkEvent("entry", "sym", {"i": i}))
        return bus.emitted

    assert benchmark(run) >= 1000


#: the sharded-backend CI bar: on the 1000-actor synthetic graph, the
#: busiest 2-shard worker must carry at most 1/1.5 of the single-kernel
#: CPU time (measured ~1.9x; recorded conservatively).  The metric is
#: the *critical path* — max per-worker CPU seconds — i.e. the wall
#: speedup a machine with one idle core per shard realises; wall clock
#: itself would demand CI cores the runners don't guarantee
SHARD_SPEEDUP_MARGIN = 1.5

_SHARD_VALUES = [3, 1, 4, 1, 5, 9, 2, 6]
#: LCG rounds per filter firing: enough interpreter compute per dispatch
#: that the (perfectly parallel) filter work dominates coordination
_SHARD_WORK_ITERS = 40


def _synthetic_single_run():
    """One single-kernel run of the 1000-actor synthetic graph; returns
    (cpu_seconds_of_run_phase, canonical fingerprint)."""
    import time

    from repro.apps.synthetic import build_synthetic_pipeline, lcg_reference
    from repro.core import DataflowSession
    from repro.dbg import Debugger, StopKind
    from repro.sim.sharding import PushStreamRecorder, fingerprint_streams

    sched, runtime, sinks = build_synthetic_pipeline(
        _SHARD_VALUES, work_iters=_SHARD_WORK_ITERS
    )
    session = DataflowSession(Debugger(sched, runtime))
    rec = PushStreamRecorder(runtime)
    t0 = time.process_time()
    ev = session.dbg.run()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = session.dbg.cont()
    cpu = time.process_time() - t0
    assert ev.kind == StopKind.EXITED
    golden = lcg_reference(_SHARD_VALUES, 25 * 9, _SHARD_WORK_ITERS)
    for sink in sinks:
        assert [t.value for t in sink.received] == golden
    return cpu, fingerprint_streams(dict(rec.streams))


def _synthetic_pool_run(n_shards):
    """One process-pool run of the same graph; returns the finished
    :class:`~repro.sim.sharding.ProcPoolRun` (busy times, fingerprint)."""
    from repro.apps.synthetic import (
        build_synthetic_pipeline,
        build_synthetic_program,
        lcg_reference,
        synthetic_hosts,
    )
    from repro.core import DataflowSession
    from repro.dbg import Debugger
    from repro.sim.sharding import ProcPoolRun, partition_program

    program = build_synthetic_program(
        steps=len(_SHARD_VALUES), work_iters=_SHARD_WORK_ITERS
    )
    plan = partition_program(program, n_shards, hosts=synthetic_hosts())

    def builder(ctx):
        sched, runtime, _ = build_synthetic_pipeline(
            _SHARD_VALUES, work_iters=_SHARD_WORK_ITERS, shard=ctx
        )
        return DataflowSession(Debugger(sched, runtime))

    pool = ProcPoolRun(plan, builder)
    outcome = pool.run()
    assert outcome == "exited"
    golden = lcg_reference(_SHARD_VALUES, 25 * 9, _SHARD_WORK_ITERS)
    for c in range(4):
        assert pool.sinks[f"snk{c}"] == golden
    return pool


@pytest.mark.parametrize("mode", ["single", "sharded-x2", "sharded-x4"])
def test_sharded_throughput_row(benchmark, mode):
    """Perf-trajectory rows (end-to-end wall, build included): the
    1000-actor synthetic graph single-kernel vs process-pool sharded.
    One round each — these are multi-second integration runs, recorded
    for the BENCH json rather than statistically resolved."""
    if mode == "single":
        run = lambda: _synthetic_single_run()[0]  # noqa: E731
    else:
        n = int(mode.rsplit("x", 1)[-1])
        run = lambda: max(_synthetic_pool_run(n).busy_times.values())  # noqa: E731
    assert benchmark.pedantic(run, rounds=1, iterations=1) > 0


def test_sharded_speedup_margin():
    """The acceptance gate (runs under ``--benchmark-disable`` too): the
    2-shard process-pool run beats the single kernel by the recorded
    margin on the critical path, with a byte-identical fingerprint."""
    single_cpu, fp_single = _synthetic_single_run()
    pool = _synthetic_pool_run(2)
    assert pool.fingerprint() == fp_single, "sharded fingerprint diverged"
    critical = max(pool.busy_times.values())
    assert single_cpu >= SHARD_SPEEDUP_MARGIN * critical, (
        f"sharded critical-path speedup {single_cpu / critical:.2f}x below "
        f"the recorded {SHARD_SPEEDUP_MARGIN}x margin "
        f"(single {single_cpu:.2f}s CPU, busiest shard {critical:.2f}s CPU)"
    )

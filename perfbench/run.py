"""End-to-end debugger benchmark with per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload h264-debug --seed 1 --seconds 20 --trace 0

Workloads, metric names and units come from ``BENCHMARK.json`` at the
repository root.  The run repeats whole seeded sessions of the workload
until ``--seconds`` have passed, checks every output, and prints one
report line per metric (value, unit, sample count) and, last, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured with nothing
patched and scaled to host speed references timed between the sessions
(``hostspeed.py``).  ``--trace 1`` reports the per-layer metrics: a few untraced
repetitions first (the tracing-overhead base), then traced ones, whose
spans of the first traced repetition are written as a Chrome trace to
``perfbench/out/``.

The program under ``src/`` is imported as it is; nothing in it changes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: repetitions per run, at least (a run also stops only after --seconds)
MIN_REPS = 3
#: untraced repetitions a traced run measures first, for the overhead
TRACE_BASE_REPS = 2
#: §V intrusion table: rounds per configuration
INTRUSION_ROUNDS = 5
#: units of per-layer metrics that are exact counts: they must repeat
#: across repetitions of one seed
EXACT_UNITS = ("count", "cycles")


def _load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _percentile(values: List[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(samples, peak_rss_mb: float) -> Dict[str, tuple]:
    """``name -> (value, sample count)`` for the end-to-end metrics: each
    timing's median (and p95) over all its samples, scaled to the host
    speed reference (see ``hostspeed.py``)."""
    from hostspeed import NOMINAL

    setup_s = samples.scaled("setup_s", NOMINAL)
    run_s = samples.scaled("run_s", NOMINAL)
    out = {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "run_s": (statistics.median(run_s), len(run_s)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    for name in ("stop", "hop", "inspect"):
        values = samples.scaled(f"{name}_ms", NOMINAL)
        if values:
            out[f"{name}_p50_ms"] = (statistics.median(values), len(values))
            out[f"{name}_p95_ms"] = (_percentile(values, 95), len(values))
    out["fail_ratio"] = (samples.failed / max(1, samples.attempted), samples.attempted)
    return out


def layer_metrics(tr, counters: Dict[str, Any], frontend_misses: int) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    from workloads import cycles_flushed, tokens_pushed

    runtimes = tr.runtimes
    emitted = sum(rt.bus.emitted for rt in runtimes)
    observed = tr.counts["pedf.bus.observed"]
    hops = tr.hop_log
    hop_s = sum(h[0] for h in hops)
    tails = sum(h[1][2] for h in hops if h[1] is not None)
    service_s = sum(v for k, v in tr.total_s.items() if k.startswith("CommandService."))
    m = {
        "sim.kernel.dispatches": tr.counts["sim.kernel.dispatches"],
        "sim.kernel.self_s": tr.self_s["sim.kernel"],
        "sim.kernel.sim_cycles": sum(rt.scheduler.now for rt in runtimes),
        "pedf.elaborate_s": tr.total_s["pedf.elaborate"],
        "pedf.self_s": tr.self_s["pedf"],
        "pedf.bus.emitted": emitted,
        "pedf.bus.observed": observed,
        "pedf.bus.observed_ratio": observed / emitted if emitted else 0.0,
        "pedf.tokens": sum(tokens_pushed(rt) for rt in runtimes),
        "cminus.frontend_misses": frontend_misses,
        "cminus.frontend_s": tr.total_s["cminus.frontend"],
        "cminus.calls": tr.counts["cminus.calls"],
        "cminus.self_s": tr.self_s["cminus"],
        "cminus.cycles": sum(cycles_flushed(rt) for rt in runtimes),
        "core.capture.events": tr.counts["core.capture.listener_calls"],
        "core.capture.data_events": counters.get("core.capture.data_events", 0),
        "core.capture.self_s": tr.self_s["core.capture"],
        "sim.replay.events": counters.get("sim.replay.events", 0),
        "sim.replay.checkpoints": counters.get("sim.replay.checkpoints", 0),
        "sim.replay.snapshots": counters.get("sim.replay.snapshots", 0),
        "sim.replay.record_s": tr.self_s["sim.replay"],
        "core.replay.hops": len(hops),
        "core.replay.rebuilds": sum(1 for h in hops if h[1] is not None and h[1][0] == 0),
        "core.replay.tail_events": tails,
        "core.replay.pool_hit_ratio": sum(1 for h in hops if h[2]) / len(hops) if hops else 0.0,
        "core.replay.hop_s": hop_s,
        "core.replay.s_per_tail_event": hop_s / tails if tails else 0.0,
        "obs.spans": counters.get("obs.spans", 0),
        "obs.self_s": tr.self_s["obs"],
        "rv.events": tr.counts["rv.listener_calls"],
        "rv.verdicts": counters.get("rv.verdicts", 0),
        "rv.self_s": tr.self_s["rv"],
        "core.service.commands": counters.get("core.service.commands", 0),
        "core.service.errors": counters.get("core.service.errors", 0),
        "core.service.execute_s": service_s,
        "core.service.self_s": tr.self_s["core.service"],
        "dbg.stops": counters.get("dbg.stops", 0),
        "dbg.self_s": tr.self_s["dbg"],
        "serve.rpcs": tr.counts["serve.rpcs"],
        "serve.rpc_errors": tr.counts["serve.rpc_errors"],
        "serve.create_s": tr.total_s["serve.create"],
        "serve.wire_s": tr.self_s["serve"],
    }
    return m


def measure_untraced(wl, workload: str, samples, checked_rep, deadline: float):
    """Sessions with nothing patched until the deadline, the host speed
    reference timed before each and after the last: end-to-end metrics."""
    from hostspeed import NOMINAL

    sessions = 0
    while sessions < MIN_REPS or time.perf_counter() < deadline:
        gc.collect()
        samples.checkpoint()
        checked_rep(samples)
        sessions += 1
    gc.collect()
    samples.checkpoint()
    for name in samples.refs[0]:
        ref = statistics.median(r[name] for r in samples.refs)
        print(f"# host speed reference {name}: median {ref:.6f} s of {len(samples.refs)} "
              f"(about {NOMINAL[name] / ref:.4f} x raw wall time)")
    print(f"# sessions: {sessions}")
    peak = _peak_rss_mb()
    if workload == "synthetic-1000":
        wl.sharded_check(samples)
    return end_to_end(samples, peak)


def measure_traced(wl, workload: str, seed: int, samples, checked_rep, deadline: float,
                   units: Dict[str, str]):
    """Untraced base sessions, then traced ones until the deadline:
    per-layer metrics, the tracing overhead, the sharded and §V extras."""
    from repro.cminus.frontend import frontend_cache

    from tracer import Tracer
    from workloads import INTRUSION_CONFIGS, Samples

    intrusion = None
    if workload == "h264-debug":
        intrusion = wl.intrusion_table(INTRUSION_ROUNDS)
        sums = {c: v[1] for c, v in intrusion.items()}
        samples.check(
            all(len(v) == 1 for v in sums.values()) and len(set().union(*sums.values())) == 1,
            f"§V configurations decoded different outputs: {sums}",
        )
    base = Samples()
    for _ in range(TRACE_BASE_REPS):
        checked_rep(base)
    traced = Samples()
    per_rep: List[Dict[str, float]] = []
    tracer = Tracer()
    with tracer:
        while len(per_rep) < MIN_REPS or time.perf_counter() < deadline:
            tracer.reset()
            tracer.keep_spans = not per_rep
            counters = checked_rep(traced)
            per_rep.append(layer_metrics(tracer, counters, frontend_cache.misses))
            tracer.keep_spans = False
    shard = wl.sharded_check(samples) if workload == "synthetic-1000" else {}
    samples.absorb(base)
    samples.absorb(traced)

    first = per_rep[0]
    layer = {}
    for name in first:
        if units.get(name) in EXACT_UNITS:
            samples.check(all(r[name] == first[name] for r in per_rep),
                          f"per-layer count {name} differs between repetitions")
            layer[name] = (first[name], len(per_rep))
        else:
            layer[name] = (statistics.median(r[name] for r in per_rep), len(per_rep))
    layer["trace.overhead_s"] = (
        statistics.median(traced.run_s) - statistics.median(base.run_s), len(traced.run_s)
    )
    wall = shard.get("wall_s", 0.0)
    crit = shard.get("critical_path_s", 0.0)
    layer["sim.sharding.critical_path_s"] = (crit, 1)
    layer["sim.sharding.busy_sum_s"] = (shard.get("busy_sum_s", 0.0), 1)
    layer["sim.sharding.balance"] = (shard.get("balance", 0.0), 1)
    layer["sim.sharding.xshard_tokens"] = (shard.get("xshard_tokens", 0), 1)
    layer["sim.sharding.coordination_s"] = (wall - crit, 1)
    for config in INTRUSION_CONFIGS[1:]:
        value = intrusion[config][0] / intrusion["native"][0] if intrusion else 0.0
        layer[f"core.capture.slowdown_{config}"] = (value, INTRUSION_ROUNDS)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"trace-{workload}-seed{seed}.json")
    written = tracer.write_chrome_trace(path, workload)
    print(f"# chrome trace: {os.path.relpath(path, ROOT)} ({written} spans)")
    return layer


def run_workload(args, spec) -> int:
    from hostspeed import HostSpeed
    from workloads import WORKLOADS, Samples

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    kind = WORKLOADS[args.workload]
    samples = Samples(wire_timings=kind.WIRE_TIMINGS)
    wl = kind(args.seed)
    host = None
    try:
        if not args.trace:
            host = samples.reference = HostSpeed(wire=bool(kind.WIRE_TIMINGS))
        warm = Samples()  # the warm-up session's timings are dropped
        golden = wl.rep(warm)
        samples.absorb(warm)

        def checked_rep(into) -> Dict[str, Any]:
            # start every session from a collected heap, so one session's
            # garbage is not charged to the next one's timings
            gc.collect()
            counters = wl.rep(into)
            samples.check(counters == golden, f"counters differ between repetitions: "
                          f"{sorted(k for k in golden if counters.get(k) != golden[k])}")
            return counters

        deadline = time.perf_counter() + args.seconds
        if args.trace:
            metrics = measure_traced(wl, args.workload, args.seed, samples, checked_rep,
                                     deadline, units)
        else:
            metrics = measure_untraced(wl, args.workload, samples, checked_rep, deadline)
    finally:
        wl.close()
        if host is not None:
            host.close()

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    for name, (value, n) in sorted(metrics.items()):
        unit = units.get(name, "ms" if name.endswith("_ms") else "")
        print(f"# {name:<40} {value:>14.6g} {unit:<6} n={n}")
    for note in samples.notes:
        print(f"# FAILED: {note}", file=sys.stderr)
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"benchmark bug: metrics not measured: {missing}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]} for name in wanted},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(names)})")
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"benchmark: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())

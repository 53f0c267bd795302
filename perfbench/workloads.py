"""The benchmark's workloads: seeded debug sessions, closed loop.

Every workload is one caller that waits for each reply, because a person
at a debugger waits on every command.  One repetition (:meth:`rep`) is a
whole session: set-up, the scripted phase, output checks, tear-down.  The
inputs are drawn from the seed once, in ``__init__``; the program only
ever sees the generated values.

Each repetition returns a dict of exact counters.  Repetitions of one
seed must return identical dicts, so the runner counts any difference as
a failed operation.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.h264.app import build_decoder
from repro.apps.h264.bitstream import make_macroblocks
from repro.apps.h264.golden import decode_golden
from repro.apps.rle.app import TERMINATOR
from repro.apps.synthetic import (
    build_synthetic_pipeline,
    build_synthetic_program,
    lcg_reference,
    synthetic_hosts,
)
from repro.cminus.frontend import frontend_cache
from repro.core import DataflowSession, install_dataflow_commands
from repro.core.service import CommandService
from repro.dbg import CommandCli, Debugger
from repro.serve.client import RpcError
from repro.serve.embed import DaemonThread
from repro.sim.sharding import ProcPoolRun, enumerate_cross_links, partition_program

#: §V intrusion configurations, in report order
INTRUSION_CONFIGS = ("native", "attached-idle", "none", "control-only", "actor-specific", "all")


class Samples:
    """Latency samples, operation counts and failure notes of one run.

    Once ``reference`` is set to the host speed references
    (``hostspeed.HostSpeed``), :meth:`checkpoint` times them and marks
    where each timing's samples stand; :meth:`scaled` then scales every
    sample by the reference times that bracket it: by ``wire`` for the
    timings in ``wire_timings``, by ``cpu`` for the others."""

    TIMINGS = ("setup_s", "run_s", "stop_ms", "hop_ms", "inspect_ms")

    def __init__(self, wire_timings: Tuple[str, ...] = ()) -> None:
        self.setup_s: List[float] = []
        self.run_s: List[float] = []
        self.stop_ms: List[float] = []
        self.hop_ms: List[float] = []
        self.inspect_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.reference: Optional[Callable[[], Dict[str, float]]] = None
        self.wire_timings = wire_timings
        self.refs: List[Dict[str, float]] = []
        self.marks: List[Dict[str, int]] = []

    def absorb(self, other: "Samples") -> None:
        """Take over another run's operation counts and failure notes."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += other.notes[: 20 - len(self.notes)]

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a false ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok

    def checkpoint(self) -> None:
        """Time the host speed references here (no-op without them)."""
        if self.reference is not None:
            self.refs.append(self.reference())
            self.marks.append({f: len(getattr(self, f)) for f in self.TIMINGS})

    def scaled(self, field: str, nominal: Dict[str, float]) -> List[float]:
        """The samples of one timing taken between the first and the last
        checkpoint, each multiplied by its reference's nominal time over
        the mean of the two reference times that bracket it."""
        ref = "wire" if field in self.wire_timings else "cpu"
        values = getattr(self, field)
        out: List[float] = []
        for k in range(len(self.marks) - 1):
            factor = nominal[ref] / ((self.refs[k][ref] + self.refs[k + 1][ref]) / 2)
            lo, hi = self.marks[k][field], self.marks[k + 1][field]
            out += [v * factor for v in values[lo:hi]]
        return out


def _checksum(values) -> int:
    acc = 0
    for v in values:
        acc = (acc * 1000003 + int(v)) & 0xFFFFFFFF
    return acc


def tokens_pushed(runtime) -> int:
    """Tokens pushed on every link of one machine."""
    return sum(link.total_pushed for link in runtime.links)


def cycles_flushed(runtime) -> int:
    """Simulated cycles the interpreters of one machine flushed (counted
    while telemetry or the profiler is armed)."""
    return sum(
        getattr(getattr(a, "interp", None), "cycles_flushed", 0) for a in runtime.all_actors()
    )


# ---------------------------------------------------------------- h264-debug


class H264Debug:
    """The paper's §V interactive session, in process.

    A seeded macroblock stream feeds the h264 decoder.  The session turns
    on the journal and span telemetry before ``run``, arms RV checks once
    the graph exists, and stops at every WORK of ``pipe`` (once per
    macroblock), where it runs the inspections a user would."""

    name = "h264-debug"
    #: timings bound by thread hand-offs rather than by work (hostspeed.py)
    WIRE_TIMINGS: Tuple[str, ...] = ()
    N_MBS = 150
    CHECKS = (
        "deadlock-free",
        "occupancy pipe::Pipe_ipred_out->ipred::Pipe_in <= 8",
        "progress pipe every 5000",
    )
    INSPECT = ("filter pipe info state", "iface pipe::MbType_in info", "dataflow info")

    def __init__(self, seed: int):
        self.mbs = make_macroblocks(self.N_MBS, seed=seed)
        self.golden = [g.decoded for g in decode_golden(self.mbs)]

    def _fresh(self):
        sched, _platform, runtime, _source, sink, _ = build_decoder(mbs=self.mbs)
        return DataflowSession(Debugger(sched, runtime), stop_on_init=True), sink

    def rep(self, s: Samples) -> Dict[str, Any]:
        frontend_cache.clear()
        t0 = time.perf_counter()
        session, sink = self._fresh()
        cli = CommandCli(session.dbg)
        install_dataflow_commands(cli, session)
        session.cli = cli
        session.replay.register_builder(lambda: self._fresh()[0])
        svc: CommandService = cli.service
        s.setup_s.append(time.perf_counter() - t0)

        stops = 0

        def ex(line: str, bucket: Optional[List[float]] = None):
            nonlocal stops
            r = svc.execute(line, isolate=True)
            s.check(r.ok, f"{line}: {r.error}")
            if bucket is not None:
                bucket.append(r.elapsed_ms)
            if r.stop is not None:
                stops += 1
            return r

        t_run = time.perf_counter()
        ex("record on")
        ex("trace on")
        ex("run", s.stop_ms)  # stops once the graph is reconstructed
        for prop in self.CHECKS:
            ex(f"check add log {prop}")
        ex("filter pipe catch work")
        caught = 0
        while True:
            r = ex("continue", s.stop_ms)
            if r.stop is None or r.stop["kind"] != "dataflow":
                break
            caught += 1
            for line in self.INSPECT:
                ex(line, s.inspect_ms)
        s.run_s.append(time.perf_counter() - t_run)

        s.check(r.stop is not None and r.stop["kind"] == "exited", f"h264 ended {r.stop}")
        s.check(caught == self.N_MBS, f"pipe caught {caught} of {self.N_MBS} macroblocks")
        s.check(sink.values == self.golden, "h264 sink differs from the golden decoder")
        dbg = session.dbg
        master = session.replay.master
        tel = session.telemetry
        return {
            "sim.kernel.dispatches": dbg.scheduler.dispatch_count,
            "sim.kernel.sim_cycles": dbg.scheduler.now,
            "pedf.bus.emitted": dbg.runtime.bus.emitted,
            "pedf.tokens": tokens_pushed(dbg.runtime),
            "cminus.cycles": cycles_flushed(dbg.runtime),
            "core.capture.events": session.capture.events_processed,
            "core.capture.data_events": session.capture.data_events_processed,
            "sim.replay.events": master.total_events,
            "sim.replay.checkpoints": len(master.checkpoints),
            "sim.replay.snapshots": len(master.state_snapshots),
            "obs.spans": len(tel.sink) + tel.sink.dropped,
            "rv.verdicts": len(session.checks.verdicts),
            "core.service.commands": svc.commands_run,
            "core.service.errors": svc.errors,
            "dbg.stops": stops,
            "output.checksum": _checksum(sink.values),
        }

    def intrusion_table(self, rounds: int) -> Dict[str, Any]:
        """§V: decode the seeded stream with no stops under each debug
        configuration; median wall time per configuration and the output
        checksums (which must all be equal).  Each round starts at the next
        configuration, so no configuration always runs first."""
        walls: Dict[str, List[float]] = {c: [] for c in INTRUSION_CONFIGS}
        sums: Dict[str, set] = {c: set() for c in INTRUSION_CONFIGS}
        n = len(INTRUSION_CONFIGS)
        for r in range(rounds):
            for k in range(n):
                config = INTRUSION_CONFIGS[(r + k) % n]
                sched, _platform, runtime, _source, sink, _ = build_decoder(mbs=self.mbs)
                if config == "native":
                    runtime.load()
                    go: Callable[[], Any] = sched.run
                else:
                    dbg = Debugger(sched, runtime)
                    if config != "attached-idle":
                        session = DataflowSession(dbg)
                        if config == "actor-specific":
                            session.set_data_capture(["pipe"])
                        elif config != "all":
                            session.set_data_capture(config)
                    dbg.load()
                    go = dbg.cont
                gc.collect()
                t0 = time.perf_counter()
                go()
                walls[config].append(time.perf_counter() - t0)
                sums[config].add(_checksum(sink.values))
        return {c: (statistics.median(walls[c]), sums[c]) for c in INTRUSION_CONFIGS}

    def close(self) -> None:
        pass


# ------------------------------------------------------------ synthetic-1000


class Synthetic1000:
    """The 1000-actor LCG graph with the debugger attached and idle.

    Nothing is armed, so capture, journal, telemetry, RV and the daemon
    stay out of the way: kernel dispatch, PEDF links and the Filter-C
    tier do the work, and elaborating 1000 actors dominates set-up.  The
    single ``run`` goes to exit; the user then inspects the result."""

    name = "synthetic-1000"
    WIRE_TIMINGS: Tuple[str, ...] = ()
    N_VALUES = 6
    WORK_ITERS = 4
    CHAINS = 4
    FILTERS_PER_CHAIN = 25 * 9
    #: checked once after the run, untimed
    CHECKED = ("info breakpoints", "info platform")
    #: timed inspections: the actor table, as CLI text and as the
    #: structured payload, this many times each.  One inspection of the
    #: 1000-actor graph swings by half on a shared host, and mixing it with
    #: cheap ones would put the percentiles on the seam between the two,
    #: so the session takes enough of one kind for them to settle
    INSPECT_ROUNDS = 48

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.values = [rng.randrange(1, 2**32) for _ in range(self.N_VALUES)]
        self.golden = lcg_reference(self.values, self.FILTERS_PER_CHAIN, self.WORK_ITERS)

    def rep(self, s: Samples) -> Dict[str, Any]:
        frontend_cache.clear()
        t0 = time.perf_counter()
        sched, runtime, sinks = build_synthetic_pipeline(self.values, work_iters=self.WORK_ITERS)
        dbg = Debugger(sched, runtime)
        svc = CommandService(CommandCli(dbg))
        s.setup_s.append(time.perf_counter() - t0)
        # set-up and the scripted phase each last about a second, and the
        # host's speed changes on that scale: time the references between
        s.checkpoint()

        t_run = time.perf_counter()
        r = svc.execute("run", isolate=True)
        s.stop_ms.append(r.elapsed_ms)
        s.check(r.ok and r.stop is not None and r.stop["kind"] == "exited",
                f"synthetic run ended {r.stop} {r.error}")
        def query(fn):
            t1 = time.perf_counter()
            out = fn()
            s.inspect_ms.append((time.perf_counter() - t1) * 1000.0)
            return out

        for _ in range(self.INSPECT_ROUNDS):
            q = svc.execute("info actors", isolate=True)
            s.inspect_ms.append(q.elapsed_ms)
            s.check(q.ok and len(q.lines) > 1000, f"info actors: {q.error}")
            actors = query(svc.actors)
            s.check(len(actors) == 1000 + 2 * self.CHAINS, f"synthetic shows {len(actors)} actors")
        for line in self.CHECKED:
            q = svc.execute(line, isolate=True)
            s.check(q.ok and bool(q.lines), f"{line}: {q.error}")
        s.check(svc.state()["finished"], "synthetic state not finished")
        s.run_s.append(time.perf_counter() - t_run)

        s.check(len(sinks) == self.CHAINS, f"{len(sinks)} sinks")
        for sink in sinks:
            s.check([t.value for t in sink.received] == self.golden,
                    f"synthetic sink {sink.name} differs from lcg_reference")
        return {
            "sim.kernel.dispatches": sched.dispatch_count,
            "sim.kernel.sim_cycles": sched.now,
            "pedf.bus.emitted": runtime.bus.emitted,
            "pedf.tokens": tokens_pushed(runtime),
            "cminus.cycles": cycles_flushed(runtime),
            "core.service.commands": svc.commands_run,
            "core.service.errors": svc.errors,
            "dbg.stops": 1,
            "output.checksum": _checksum(
                v for sink in sinks for v in (t.value for t in sink.received)
            ),
        }

    def sharded_check(self, s: Samples) -> Dict[str, Any]:
        """Run the same graph and seed once under ``ProcPoolRun`` at two
        shards: sinks must equal the single-kernel golden, and the
        canonical fingerprint must equal the single-kernel run's."""
        from repro.sim.sharding import PushStreamRecorder, fingerprint_streams

        sched, runtime, _ = build_synthetic_pipeline(self.values, work_iters=self.WORK_ITERS)
        rec = PushStreamRecorder(runtime)
        Debugger(sched, runtime).run()
        single = fingerprint_streams(dict(rec.streams))

        program = build_synthetic_program(steps=len(self.values), work_iters=self.WORK_ITERS)
        plan = partition_program(program, 2, hosts=synthetic_hosts())

        def builder(ctx):
            sched, runtime, _ = build_synthetic_pipeline(
                self.values, work_iters=self.WORK_ITERS, shard=ctx
            )
            return DataflowSession(Debugger(sched, runtime))

        pool = ProcPoolRun(plan, builder)
        t0 = time.perf_counter()
        outcome = pool.run()
        wall = time.perf_counter() - t0
        s.check(outcome == "exited", f"2-shard pool ended {outcome}")
        for c in range(self.CHAINS):
            s.check(pool.sinks.get(f"snk{c}") == self.golden,
                    f"2-shard sink snk{c} differs from lcg_reference")
        s.check(pool.fingerprint() == single, "2-shard fingerprint differs from single kernel")
        streams = pool.link_streams()
        cut = [x.name for x in enumerate_cross_links(program, plan, hosts=synthetic_hosts())]
        busy = list(pool.busy_times.values())
        return {
            "wall_s": wall,
            "critical_path_s": max(busy),
            "busy_sum_s": sum(busy),
            "balance": max(busy) / (sum(busy) / len(busy)),
            "xshard_tokens": sum(len(streams.get(name, ())) for name in cut),
        }

    def close(self) -> None:
        pass


# ----------------------------------------------------------- wire-timetravel


class WireTimeTravel:
    """One JSON-RPC client drives an embedded daemon over loopback.

    It creates ``rle`` with a seeded feed, records, stops at a source
    breakpoint and a WORK catchpoint through a run of ``continue``\\ s,
    finishes, runs to exit, and then time-travels: a seeded sequence of
    ``replay to event K`` hops with a ``reverse-continue`` every fourth
    hop.  Structured inspection RPCs follow every stop and hop, and the
    session's metrics are scraped every eighth."""

    name = "wire-timetravel"
    #: an inspection RPC does little work: its round trip is mostly the
    #: hand-offs between the client, the daemon's loop and its executor
    WIRE_TIMINGS: Tuple[str, ...] = ("inspect_ms",)
    CONTINUES = 40
    HOPS = 96
    #: hop targets step through the journal by the golden ratio from a
    #: seeded start: every seed visits the journal evenly, so the share of
    #: hops that land on a resident snapshot, and the re-executed tails,
    #: vary little between seeds (uniform random targets made the summed
    #: tail vary by a third)
    GOLDEN = 0.6180339887498949

    #: run lengths of the feed, in a seeded order: every seed gives the
    #: same number of runs, so the same journal length (400 values)
    RUN_LENGTHS = [1, 2, 3, 4, 5] * 26 + [4, 6]

    def __init__(self, seed: int):
        rng = random.Random(seed)
        lengths = list(self.RUN_LENGTHS)
        rng.shuffle(lengths)
        feed: List[int] = []
        for n in lengths:
            # a value unlike the previous run's, so no two runs merge
            value = rng.randrange(1, 63)
            if feed and value >= feed[-1]:
                value += 1
            feed += [value] * n
        self.feed = feed
        start = rng.random()
        self.hop_fracs = [(start + i * self.GOLDEN) % 1.0 for i in range(self.HOPS)]
        self.daemon = DaemonThread()
        self.client = self.daemon.connect(timeout=120)

    def close(self) -> None:
        self.client.close()
        self.daemon.stop()

    def rep(self, s: Samples) -> Dict[str, Any]:
        c = self.client
        stops = 0

        def rpc(bucket: Optional[List[float]], method: str, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = getattr(c, method)(*args, **kwargs)
            except RpcError as exc:
                s.check(False, f"{method}: {exc}")
                return None
            if bucket is not None:
                bucket.append((time.perf_counter() - t0) * 1000.0)
            return out

        def ex(line: str, bucket: Optional[List[float]] = None):
            nonlocal stops
            r = rpc(bucket, "execute", sid, line)
            if r is None:
                return {"ok": False, "stop": None, "lines": []}
            s.check(r["ok"], f"{line}: {r.get('error')}")
            if r.get("stop") is not None:
                stops += 1
            return r

        def inspect(at_breakpoint: bool) -> None:
            frames = rpc(s.inspect_ms, "frames", sid)
            s.check(frames is not None, "frames RPC")
            if at_breakpoint:
                s.check(bool(frames), "no frames at a pack breakpoint")
                got = rpc(s.inspect_ms, "variables", sid)
                s.check(bool(got) and any(v["name"] == "count" for v in got),
                        "variables at pack.c:30 lack count")
                val = rpc(s.inspect_ms, "evaluate", sid, "count")
                s.check(val is not None and val.get("ok"), f"evaluate count: {val}")
            st = rpc(s.inspect_ms, "state", sid)
            s.check(st is not None and st["journal"] is not None, "state RPC")

        frontend_cache.clear()
        t0 = time.perf_counter()
        created = rpc(None, "create", "rle", values=self.feed)
        s.setup_s.append(time.perf_counter() - t0)
        if created is None:
            return {}
        sid = created["session"]
        handle = self.daemon.daemon.registry.get(sid)

        t_run = time.perf_counter()
        ex("record on")
        ex("run", s.stop_ms)
        ex("break pack.c:30")
        ex("filter expand catch work")
        for _ in range(self.CONTINUES):
            r = ex("continue", s.stop_ms)
            kind = (r.get("stop") or {}).get("kind")
            s.check(kind in ("breakpoint", "dataflow"), f"continue stopped with {kind}")
            inspect(kind == "breakpoint")
        while (r.get("stop") or {}).get("kind") != "breakpoint":
            r = ex("continue", s.stop_ms)
        ex("finish", s.stop_ms)
        ex("delete 1")
        ex("delete 2")
        ex("continue", s.stop_ms)  # runs to exit
        session = handle.session
        sink = next(a for a in session.dbg.runtime.all_actors() if a.name == "cap")
        s.check([t.value for t in sink.received] == self.feed + [TERMINATOR],
                "rle sink is not the identity of the feed")
        data_events = session.capture.data_events_processed
        master = session.replay.master
        recorded = master.token_stream()
        total = master.total_events
        # hop past the first dataflow stop, so reverse-continue always has
        # an earlier stop to go back to
        first = min(st.index for st in master.stops if st.kind == "dataflow")

        # the first hop replays the whole journal, as a user's first replay
        # does; the replay manager parks its anchor machines on the way, so
        # where they lie does not depend on the seeded sweep's start
        ex(f"replay to event {total}", s.hop_ms)
        hops = [handle.session.replay.last_restore]
        for i, frac in enumerate(self.hop_fracs):
            if i % 4 == 3:
                r = ex("reverse-continue", s.hop_ms)
            else:
                target = first + 1 + int(frac * (total - first - 1))
                r = ex(f"replay to event {target}", s.hop_ms)
            s.check((r.get("stop") or {}).get("kind") == "replay", f"hop {i} did not land")
            hops.append(handle.session.replay.last_restore)
            inspect(False)
            if i % 8 == 7:
                text = rpc(s.inspect_ms, "metrics", sid)
                s.check(bool(text) and "# EOF" in text, "metrics scrape")
        ex("replay to end", s.hop_ms)
        replayed = handle.session.replay.recorder.journal.token_stream()
        s.check(replayed == recorded, "replayed token stream differs from the recording")
        s.run_s.append(time.perf_counter() - t_run)

        svc = handle.service
        counters = {
            "sim.replay.events": total,
            "sim.replay.checkpoints": len(master.checkpoints),
            "sim.replay.snapshots": len(master.state_snapshots),
            "core.capture.data_events": data_events,
            "core.replay.hop_geometry": _checksum(x for h in hops for x in h),
            "core.service.commands": svc.commands_run,
            "core.service.errors": svc.errors,
            "dbg.stops": stops,
            "output.checksum": _checksum(t.value for t in sink.received),
        }
        rpc(None, "destroy", sid)
        return counters


WORKLOADS = {w.name: w for w in (H264Debug, Synthetic1000, WireTimeTravel)}

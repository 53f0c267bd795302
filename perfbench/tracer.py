"""Span tracer that attributes wall time to the layers under ``src/repro``.

The program is not edited.  :class:`Tracer` patches the public entry point
of each layer for the duration of a ``with`` block and restores it after:

- plain calls (``Scheduler.run``, ``PedfRuntime`` construction and
  ``load``, ``compile_actor``, ``FrameworkEventBus.emit``,
  ``ReplayManager.replay_to``/``reverse_continue``, ``CommandService``
  queries, ``DebugClient.call``) get one span per call;
- coroutines (spawned kernel processes, ``Interpreter.run_function``,
  ``FrameworkAPI.call``) get one span per resume, so a coroutine parked
  on a FIFO for a million cycles is not charged for the wait;
- bus listeners, the decision functions of API breakpoints and the
  kernel's post-dispatch hook get a span named after the module that owns
  them (capture, journal, telemetry, RV ...).

Each span knows its parent: the enclosing span on its own thread, or, for
work a daemon thread does on behalf of a blocked client, the client's open
RPC span.  Every top-level span (a command, an RPC) opens a request id that
all spans under it share.  Self time (duration minus the time covered by direct children)
is summed per layer as spans close; the spans themselves are kept in
memory only while ``keep_spans`` is set and are written out as a Chrome
trace by :meth:`Tracer.write_chrome_trace`.

``ProcPoolRun.run`` is left unpatched: its workers are forked, so a patch
would trace them too and inflate the per-worker busy times the sharding
metrics are made of.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: module prefix -> layer, most specific first
_MODULE_LAYERS = (
    ("repro.sim.sharding", "sim.sharding"),
    ("repro.sim.replay", "sim.replay"),
    ("repro.sim.segments", "sim.replay"),
    ("repro.sim.snapshot", "core.replay"),
    ("repro.sim", "sim.kernel"),
    ("repro.pedf", "pedf"),
    ("repro.p2012", "pedf"),
    ("repro.apps", "pedf"),
    ("repro.cminus", "cminus"),
    ("repro.core.capture", "core.capture"),
    ("repro.core.catchpoints", "core.capture"),
    ("repro.core.replay", "core.replay"),
    ("repro.core", "core.service"),
    ("repro.obs", "obs"),
    ("repro.rv", "rv"),
    ("repro.dbg", "dbg"),
    ("repro.serve", "serve"),
)


def _layer_of_module(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def layer_of(obj: Any) -> str:
    """The layer owning ``obj``: a bound method's instance, a function,
    an instance, or a bare generator (by the file its code lives in)."""
    target = getattr(obj, "__self__", None) or obj
    if type(target).__name__ == "RunRecorder":
        # the recorder lives in core.replay, but every callback it gets is
        # a journal write: charge it to the journal layer
        return "sim.replay"
    code = getattr(target, "gi_code", None)
    if code is not None:
        return layer_of_code(code.co_filename)
    if inspect.isfunction(target):
        return _layer_of_module(target.__module__)
    return _layer_of_module(type(target).__module__)


def layer_of_code(filename: str) -> str:
    """Layer of a source file path under ``src/repro``."""
    norm = filename.replace("\\", "/")
    marker = "/repro/"
    if marker not in norm:
        return "other"
    tail = norm.rsplit(marker, 1)[1].rsplit(".py", 1)[0]
    return _layer_of_module("repro." + tail.replace("/", "."))


class _Frame:
    __slots__ = ("sid", "parent", "layer", "name", "t0", "child", "tid")

    def __init__(self, sid, parent, layer, name, t0, tid):
        self.sid = sid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.t0 = t0
        self.child = 0.0
        self.tid = tid


class _Resumed:
    """Iterator proxy that times every resume of a wrapped coroutine.

    Supports the whole generator protocol ``yield from`` and the kernel
    use (``send``/``throw``/``close``), so callers cannot tell it apart."""

    __slots__ = ("_gen", "_tracer", "_layer", "_name")

    def __init__(self, gen, tracer: "Tracer", layer: str, name: str):
        self._gen = gen
        self._tracer = tracer
        self._layer = layer
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        frame = self._tracer.begin(self._layer, self._name)
        try:
            return self._gen.send(value)
        finally:
            self._tracer.end(frame)

    def throw(self, *args):
        frame = self._tracer.begin(self._layer, self._name)
        try:
            return self._gen.throw(*args)
        finally:
            self._tracer.end(frame)

    def close(self):
        return self._gen.close()


class Tracer:
    """Patches layer entry points, aggregates self time, keeps spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._sids = itertools.count(1)
        self._patches: List[tuple] = []
        self.keep_spans = False
        self.spans: List[tuple] = []
        #: the client RPC span awaiting a reply (cross-thread parent)
        self.rpc_frame: Optional[_Frame] = None
        self.request_id = 0
        self.reset()

    # ------------------------------------------------------------ per rep

    def reset(self) -> None:
        """Zero the per-repetition aggregates (patches stay installed)."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.runtimes: List[Any] = []
        self.hop_log: List[tuple] = []

    # -------------------------------------------------------------- spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str, name: str) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self.rpc_frame
            if parent is None:
                # a top-level span (a command, an RPC) opens a request
                self.request_id += 1
        frame = _Frame(
            next(self._sids), parent, layer, name, time.perf_counter(), threading.get_ident()
        )
        stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> float:
        t1 = time.perf_counter()
        stack = self._stack()
        stack.pop()
        dur = t1 - frame.t0
        parent = frame.parent
        if parent is not None:
            parent.child += dur
        self.self_s[frame.layer] += dur - frame.child
        self.total_s[frame.name] += dur
        if self.keep_spans:
            self.spans.append(
                (frame.sid, parent.sid if parent is not None else 0, frame.layer,
                 frame.name, frame.t0, dur, frame.tid, self.request_id)
            )
        return dur

    def span(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        frame = self.begin(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(frame)

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        from repro.cminus.interp import Interpreter
        from repro.core.replay import ReplayManager
        from repro.core.service import CommandService
        from repro.dbg.debugger import Debugger
        from repro.pedf import compile as pedf_compile
        from repro.pedf.api import FrameworkAPI, FrameworkEventBus
        from repro.pedf.runtime import PedfRuntime
        from repro.serve.client import DebugClient, RpcError
        from repro.sim.kernel import Scheduler

        tr = self

        def plain(owner, attr, layer, name=None, counter=None):
            original = owner.__dict__[attr]
            label = name or f"{owner.__name__}.{attr}"

            def wrapper(*args, **kwargs):
                if counter is not None:
                    tr.counts[counter] += 1
                return tr.span(layer, label, original, *args, **kwargs)

            wrapper.__wrapped__ = original
            tr._patch(owner, attr, wrapper)

        def attributed(callback, kind):
            """Wrap a callback the program registers (listener, hook) in a
            span and a call counter of the layer that owns it."""
            layer = layer_of(callback)
            counter = f"{layer}.listener_calls"

            def wrapper(arg):
                tr.counts[counter] += 1
                return tr.span(layer, f"{kind}:{layer}", callback, arg)

            return wrapper

        # -- sim.kernel: run() is the kernel's span; each spawned process
        # is timed per resume and charged to the layer that owns it
        run = Scheduler.__dict__["run"]

        def sched_run(sched, *args, **kwargs):
            before = sched.dispatch_count
            try:
                return tr.span("sim.kernel", "Scheduler.run", run, sched, *args, **kwargs)
            finally:
                tr.counts["sim.kernel.dispatches"] += sched.dispatch_count - before

        self._patch(Scheduler, "run", sched_run)

        spawn = Scheduler.__dict__["spawn"]

        def sched_spawn(sched, gen, name="", owner=None):
            layer = layer_of(owner if owner is not None else gen)
            return spawn(sched, _Resumed(gen, tr, layer, f"resume:{layer}"), name, owner)

        self._patch(Scheduler, "spawn", sched_spawn)

        hook_prop = Scheduler.__dict__["post_dispatch_hook"]

        def set_post_hook(sched, hook):
            if hook is not None:
                hook = attributed(hook, "post_dispatch")
            hook_prop.fset(sched, hook)

        self._patch(
            Scheduler, "post_dispatch_hook", property(hook_prop.fget, set_post_hook)
        )

        # -- pedf: elaboration, framework calls, bus
        pedf_init = PedfRuntime.__dict__["__init__"]

        def runtime_init(rt, *args, **kwargs):
            tr.runtimes.append(rt)
            return tr.span("pedf", "pedf.elaborate", pedf_init, rt, *args, **kwargs)

        self._patch(PedfRuntime, "__init__", runtime_init)
        plain(PedfRuntime, "load", "pedf", name="pedf.elaborate")

        compile_actor = pedf_compile.__dict__["compile_actor"]

        def frontend(*args, **kwargs):
            return tr.span("cminus", "cminus.frontend", compile_actor, *args, **kwargs)

        self._patch(pedf_compile, "compile_actor", frontend)

        api_call = FrameworkAPI.__dict__["call"]

        def framework_call(api, *args, **kwargs):
            return _Resumed(api_call(api, *args, **kwargs), tr, "pedf", "FrameworkAPI.call")

        self._patch(FrameworkAPI, "call", framework_call)
        plain(FrameworkEventBus, "emit", "pedf", counter="pedf.bus.observed")

        subscribe = FrameworkEventBus.__dict__["subscribe"]

        def bus_subscribe(bus, symbol, listener, *args, **kwargs):
            return subscribe(bus, symbol, attributed(listener, "listener"), *args, **kwargs)

        self._patch(FrameworkEventBus, "subscribe", bus_subscribe)

        # function breakpoints on API symbols: the debugger's listener is
        # dbg, the decision it calls belongs to the layer that planted it
        break_api = Debugger.__dict__["break_api"]

        def debugger_break_api(dbg, *args, stop_fn=None, **kwargs):
            if stop_fn is not None:
                stop_fn = attributed(stop_fn, "stop_fn")
            return break_api(dbg, *args, stop_fn=stop_fn, **kwargs)

        self._patch(Debugger, "break_api", debugger_break_api)

        # -- cminus: one span per resume of a function activation
        run_function = Interpreter.__dict__["run_function"]

        def interp_run_function(interp, *args, **kwargs):
            tr.counts["cminus.calls"] += 1
            return _Resumed(
                run_function(interp, *args, **kwargs), tr, "cminus", "Interpreter.run_function"
            )

        self._patch(Interpreter, "run_function", interp_run_function)

        # -- core.replay: time travel, with the hop geometry logged
        for attr in ("replay_to", "reverse_continue"):
            original = ReplayManager.__dict__[attr]

            def hop(mgr, *args, _original=original, _attr=attr, **kwargs):
                parked = {id(r.session) for r in mgr.pool}
                frame = tr.begin("core.replay", f"ReplayManager.{_attr}")
                try:
                    return _original(mgr, *args, **kwargs)
                finally:
                    dur = tr.end(frame)
                    restore = mgr.last_restore
                    tr.hop_log.append((dur, restore, id(mgr.session) in parked))

            self._patch(ReplayManager, attr, hop)

        # -- core.service: every command and structured query
        plain(CommandService, "execute", "core.service", counter="core.service.calls")
        for attr in ("actors", "frames", "variables", "evaluate", "breakpoints", "state"):
            plain(CommandService, attr, "core.service", counter="core.service.calls")

        # -- serve: the client round trip; the daemon thread's work under
        # it is parented to the open RPC span
        rpc = DebugClient.__dict__["call"]

        def client_call(client, method, **params):
            tr.counts["serve.rpcs"] += 1
            frame = tr.begin("serve", f"rpc:{method}")
            tr.rpc_frame = frame
            try:
                return rpc(client, method, **params)
            except RpcError:
                tr.counts["serve.rpc_errors"] += 1
                raise
            finally:
                tr.rpc_frame = None
                dur = tr.end(frame)
                if method == "create":
                    tr.total_s["serve.create"] += dur

        self._patch(DebugClient, "call", client_call)

    # -------------------------------------------------------------- export

    def write_chrome_trace(self, path: str, process_name: str) -> int:
        """Write the kept spans in Chrome trace-event JSON; returns the
        number of span events written."""
        if not self.spans:
            return 0
        base = min(s[4] for s in self.spans)
        tids: Dict[int, int] = {}
        events: List[Dict[str, Any]] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": process_name}},
        ]
        for sid, parent, layer, name, t0, dur, tid, req in self.spans:
            lane = tids.setdefault(tid, len(tids) + 1)
            events.append({
                "ph": "X", "name": name, "cat": layer, "pid": 1, "tid": lane,
                "ts": round((t0 - base) * 1e6, 3), "dur": round(dur * 1e6, 3),
                "args": {"span": sid, "parent": parent, "request": req},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh,
                      separators=(",", ":"))
        return len(events) - 1


"""The debugger proper: run control, stop translation, inspection.

The platform runs only while :meth:`Debugger.cont` (or a stepping command)
is executing; any hook- or listener-requested ``Suspend`` stops the kernel
and control returns here with a :class:`~repro.dbg.stop.StopEvent`.
Because actors are cooperatively scheduled coroutines, a stopped actor
resumes exactly at the paused statement — the debugger never unwinds or
replays anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..cminus import ast as cast
from ..cminus.interp import DebugHook, Frame, Interpreter
from ..cminus.values import format_value
from ..errors import DebuggerError
from ..pedf.actors import ActorInst
from ..pedf.api import FrameworkEvent
from ..pedf.runtime import PedfRuntime
from ..sim.kernel import Scheduler, StopKind as KStopKind, StopReason
from ..sim.process import Suspend
from .breakpoints import (
    ApiBreakpoint,
    BreakpointBase,
    BreakpointRegistry,
    FinishBreakpoint,
    FunctionBreakpoint,
    IsaBreakpoint,
    RegisterWatchpoint,
    SourceBreakpoint,
    Watchpoint,
)
from .eval import EvalError, Evaluator, ValueHistory, format_typed
from .events import StopFanout
from .stop import StopEvent, StopKind


@dataclass
class _StepState:
    mode: str  # "step" | "next" | "stepi" | "isi"
    actor: str  # qualified name
    depth: int
    line: int


class _InterpHook(DebugHook):
    """Bridges interpreter callbacks to the debugger."""

    def __init__(self, dbg: "Debugger"):
        self.dbg = dbg

    def on_statement(self, interp, stmt):
        return self.dbg._on_statement(interp, stmt)

    def on_call(self, interp, frame):
        return self.dbg._on_call(interp, frame)

    def on_return(self, interp, frame, value):
        return self.dbg._on_return(interp, frame, value)

    def on_trap(self, interp):
        return self.dbg._on_trap(interp)

    def on_instruction(self, interp, act):
        return self.dbg._on_instruction(interp, act)

    def on_isa_break(self, interp, act):
        return self.dbg._on_isa_break(interp, act)


class Debugger:
    """Interactive debugger attached to one PEDF runtime."""

    def __init__(self, scheduler: Scheduler, runtime: PedfRuntime):
        self.scheduler = scheduler
        self.runtime = runtime
        self.breakpoints = BreakpointRegistry()
        self.history = ValueHistory()
        self.hook = _InterpHook(self)
        runtime.set_hook(self.hook)
        self.debug_info = runtime.merged_debug_info()
        self._actor_by_interp: Dict[int, ActorInst] = {}
        for actor in runtime.all_actors():
            if getattr(actor, "interp", None) is not None:
                self._actor_by_interp[id(actor.interp)] = actor
        self.selected_actor: Optional[ActorInst] = None
        self.selected_frame_index = 0
        self.last_stop: Optional[StopEvent] = None
        self.stop_log: List[StopEvent] = []
        self._step: Optional[_StepState] = None
        self._last_lines: Dict[int, tuple] = {}  # interp id -> (depth, line)
        self._pause_requested = False
        self._finished = False
        #: callbacks run on every stop (the extension API's event registry)
        self.stop_callbacks: List[Callable[[StopEvent], None]] = []
        #: thread-safe stop distribution for detached observers (wire
        #: connections, watchdogs): every stop that reaches the stop
        #: callbacks is also published here, and a broken subscriber can
        #: never unwind the kernel thread
        self.fanout = StopFanout()
        self.stop_callbacks.append(self.fanout.publish)
        #: armed by the telemetry facade: adds CAP_TELEMETRY to the hook
        #: mask so interpreters count flushed cycles (span cost attribution)
        self.telemetry_armed = False
        #: armed by the runtime-verification facade: adds CAP_RV to the
        #: hook mask (monitors ride the framework event bus; the bit never
        #: deoptimizes the bytecode tier)
        self.rv_armed = False
        #: armed by the profiler facade: adds CAP_PROFILE to the hook mask
        #: so interpreters attribute flushed cycles through
        #: ``hook.profile_sink`` (never deoptimizes)
        self.profiler_armed = False
        scheduler.pre_dispatch_hook = self._pre_dispatch
        # fast path: keep the kernel's pre-dispatch callback disarmed until
        # a pause is actually pending — zero per-dispatch cost otherwise
        scheduler.set_pre_dispatch_armed(False)
        self.breakpoints.on_change = self._recompute_capabilities
        self._recompute_capabilities()

    # ------------------------------------------------------------ plumbing

    def _actor_of(self, interp: Interpreter) -> Optional[ActorInst]:
        return self._actor_by_interp.get(id(interp))

    def _recompute_capabilities(self) -> None:
        """Re-derive the hook capability mask from what is armed (§V hook
        elision).  Called on every registry mutation and step-state change;
        when nothing can fire, interpreters skip instrumentation entirely."""
        reg = self.breakpoints
        caps = 0
        # instruction stepping ("isi") rides CAP_ISA, not CAP_STATEMENTS —
        # arming the statement path would deoptimize the VM frame out from
        # under the very step that wants to observe it
        stepping_stmts = self._step is not None and self._step.mode != "isi"
        if stepping_stmts or reg.armed_count("source") or reg.armed_count("watch"):
            caps |= DebugHook.CAP_STATEMENTS
        if reg.armed_count("function"):
            caps |= DebugHook.CAP_CALLS
        if reg.armed_count("finish"):
            caps |= DebugHook.CAP_RETURNS
        if reg.armed_count("api") or reg.armed_count("catch"):
            caps |= DebugHook.CAP_DATA
        if self.telemetry_armed:
            # telemetry rides the same mask but NOT the tier-selection bits:
            # the bytecode tier stays resident, it just counts cycles
            caps |= DebugHook.CAP_TELEMETRY
        if self.rv_armed:
            # likewise outside CAP_ALL: property monitors consume framework
            # events, so arming them must not drop the bytecode tier
            caps |= DebugHook.CAP_RV
        if self.profiler_armed:
            # attributed profiling: outside CAP_ALL, implies cycle counting
            # at the flush sites but never perturbs tier selection
            caps |= DebugHook.CAP_PROFILE
        if (
            (self._step is not None and self._step.mode == "isi")
            or reg.armed_count("isa")
            or reg.armed_count("rwatch")
        ):
            # instruction-level surface: outside CAP_ALL, so the bytecode
            # tier stays resident — it just runs its instrumented prelude
            caps |= DebugHook.CAP_ISA
        # Push unconditionally: interpreters cache tier-selection flags
        # locally (``_fast_ok``/``_want_*``), and an interpreter built or
        # adopted after the last mask *change* would otherwise keep stale
        # flags until the next transition.  Registry mutations are rare;
        # the refresh is O(actors) and keeps every live fast path honest
        # the moment a breakpoint is armed or disarmed.
        self.hook.capabilities = caps
        for actor in self.runtime.all_actors():
            interp = getattr(actor, "interp", None)
            if interp is not None:
                interp.refresh_hook_caps()

    def _pre_dispatch(self, process):
        if self._pause_requested:
            self._pause_requested = False
            self.scheduler.set_pre_dispatch_armed(False)
            ev = StopEvent(StopKind.PAUSED, "execution interrupted", time=self.scheduler.now)
            self._record_stop(ev, None)
            return Suspend(ev)
        return None

    def request_pause(self) -> None:
        """Ask the kernel to stop before the next dispatch (Ctrl-C)."""
        self._pause_requested = True
        self.scheduler.set_pre_dispatch_armed(True)

    def _record_stop(self, ev: StopEvent, actor: Optional[ActorInst]) -> None:
        ev.time = self.scheduler.now
        self.last_stop = ev
        self.stop_log.append(ev)
        if actor is not None:
            self.selected_actor = actor
            self.selected_frame_index = 0
        if self._step is not None:
            self._step = None
            self._recompute_capabilities()

    def _suspend(self, ev: StopEvent, actor: Optional[ActorInst]) -> Suspend:
        self._record_stop(ev, actor)
        return Suspend(ev)

    def external_suspend(self, ev: StopEvent, actor: Optional[ActorInst] = None) -> Suspend:
        """Record a stop and build its kernel ``Suspend`` on behalf of an
        extension (the record/replay driver stops the platform exactly at a
        journal position this way)."""
        return self._suspend(ev, actor)

    # --------------------------------------------------------- hook: stmts

    def _on_statement(self, interp: Interpreter, stmt) -> Optional[Suspend]:
        actor = self._actor_of(interp)
        frame = interp.frame
        if frame is None:
            return None
        key = id(interp)
        prev = self._last_lines.get(key)
        cur = (frame.depth, stmt.line)
        self._last_lines[key] = cur
        new_line = prev != cur
        reg = self.breakpoints

        # 1. source breakpoints (on line entry) — O(1) (file, line) lookup
        if new_line and reg.armed_count("source"):
            for bp in reg.source_bps_at(frame.filename, stmt.line):
                if bp.actor and (actor is None or actor.qualname != bp.actor):
                    continue
                req = self._fire_location_bp(bp, StopKind.BREAKPOINT, interp, actor, frame)
                if req is not None:
                    return req

        # 2. watchpoints scoped to this actor — O(1) actor lookup
        if actor is not None and reg.armed_count("watch"):
            for wp in reg.watchpoints_for(actor.qualname):
                req = self._check_watchpoint(wp, interp, actor, frame)
                if req is not None:
                    return req

        # 3. stepping
        if self._step is not None and actor is not None and self._step.actor == actor.qualname:
            st = self._step
            hit = False
            if st.mode == "stepi":
                hit = True
            elif st.mode == "step":
                hit = (frame.depth, stmt.line) != (st.depth, st.line)
            elif st.mode == "next":
                hit = frame.depth < st.depth or (
                    frame.depth == st.depth and stmt.line != st.line
                )
            if hit:
                ev = StopEvent(
                    StopKind.STEP,
                    actor=actor.qualname,
                    filename=frame.filename,
                    line=stmt.line,
                )
                return self._suspend(ev, actor)
        return None

    def _fire_location_bp(
        self,
        bp: BreakpointBase,
        kind: StopKind,
        interp: Interpreter,
        actor: Optional[ActorInst],
        frame: Frame,
        message: str = "",
    ) -> Optional[Suspend]:
        if not bp.register_hit():
            return None
        if bp.condition:
            try:
                ev_val = self._evaluator(frame=frame, interp=interp, actor=actor).eval_text(
                    bp.condition
                )
                if not ev_val[1]:
                    return None
            except EvalError as exc:
                message = (message + f" (condition error: {exc})").strip()
        if not bp.stop(frame):
            return None
        if bp.temporary:
            self.breakpoints.remove(bp.id)
        ev = StopEvent(
            kind,
            message=message,
            actor=actor.qualname if actor else None,
            filename=frame.filename,
            line=frame.line,
            bp_id=bp.id,
        )
        return self._suspend(ev, actor)

    def _check_watchpoint(
        self, wp: Watchpoint, interp: Interpreter, actor: ActorInst, frame: Frame
    ) -> Optional[Suspend]:
        try:
            ctype, raw = self._evaluator(frame=frame, interp=interp, actor=actor).eval_text(
                wp.expr_text
            )
            current = (ctype, raw)
        except EvalError:
            wp.last = None
            return None
        if not wp.primed:
            wp.primed = True
            wp.last = current
            return None
        if wp.last is not None and wp.last[1] == current[1]:
            return None
        old_text = format_typed(*wp.last) if wp.last is not None else "<unavailable>"
        new_text = format_typed(*current)
        wp.last = current
        if not wp.register_hit():
            return None
        if not wp.stop(current):
            return None
        ev = StopEvent(
            StopKind.WATCHPOINT,
            message=f"{wp.expr_text}: old = {old_text}, new = {new_text}",
            actor=actor.qualname,
            filename=frame.filename,
            line=frame.line,
            bp_id=wp.id,
        )
        return self._suspend(ev, actor)

    # --------------------------------------------------- hook: calls/returns

    def _on_call(self, interp: Interpreter, frame: Frame) -> Optional[Suspend]:
        actor = self._actor_of(interp)
        for bp in self.breakpoints.function_bps_for(frame.func.name):
            if bp.actor and (actor is None or actor.qualname != bp.actor):
                continue
            req = self._fire_location_bp(
                bp, StopKind.FUNCTION_BP, interp, actor, frame, message=frame.func.name
            )
            if req is not None:
                return req
        return None

    def _on_return(self, interp: Interpreter, frame: Frame, value) -> Optional[Suspend]:
        actor = self._actor_of(interp)
        for bp in self.breakpoints.finish_bps_for(interp):
            if bp.frame is not frame:
                continue
            if not bp.register_hit():
                continue
            bp.return_value = value
            if not bp.stop(value):
                continue
            if bp.temporary:
                self.breakpoints.remove(bp.id)
            ret_text = format_value(frame.func.ret, value)
            ev = StopEvent(
                StopKind.FINISH,
                message=f"{frame.func.name} returned {ret_text}",
                actor=actor.qualname if actor else None,
                filename=frame.filename,
                line=frame.call_line or frame.line,
                bp_id=bp.id,
                payload=value,
            )
            return self._suspend(ev, actor)
        return None

    def _on_trap(self, interp: Interpreter) -> Optional[Suspend]:
        actor = self._actor_of(interp)
        frame = interp.frame
        ev = StopEvent(
            StopKind.TRAP,
            actor=actor.qualname if actor else None,
            filename=frame.filename if frame else None,
            line=frame.line if frame else None,
        )
        return self._suspend(ev, actor)

    # ---------------------------------------------------- hook: ISA level

    def _on_instruction(self, interp: Interpreter, act) -> Optional[Suspend]:
        """Fires before every VM instruction while CAP_ISA is armed."""
        reg = self.breakpoints
        actor = self._actor_of(interp)
        fname = act.vmf.name

        # 1. ISA breakpoints — O(1) (func, pc) lookup
        if reg.armed_count("isa"):
            for bp in reg.isa_bps_at(fname, act.pc):
                if bp.actor and (actor is None or actor.qualname != bp.actor):
                    continue
                if not bp.register_hit():
                    continue
                if not bp.stop(act):
                    continue
                if bp.temporary:
                    self.breakpoints.remove(bp.id)
                ev = StopEvent(
                    StopKind.ISA_BP,
                    message=f"{fname}+{act.pc}",
                    actor=actor.qualname if actor else None,
                    filename=act.vmf.filename,
                    line=act.line(),
                    bp_id=bp.id,
                )
                return self._suspend(ev, actor)

        # 2. register watchpoints scoped to this function
        if reg.armed_count("rwatch"):
            for wp in reg.register_watchpoints_for(fname):
                if wp.actor and (actor is None or actor.qualname != wp.actor):
                    continue
                cur = act.regs[wp.reg] if wp.reg < len(act.regs) else None
                if not wp.primed:
                    wp.primed = True
                    wp.last = (cur,)
                    continue
                if wp.last is not None and wp.last[0] == cur:
                    continue
                old = wp.last[0] if wp.last is not None else "<unset>"
                wp.last = (cur,)
                if not wp.register_hit():
                    continue
                if not wp.stop(cur):
                    continue
                ev = StopEvent(
                    StopKind.REGISTER_WATCH,
                    message=f"r{wp.reg} in {fname}: old = {old}, new = {cur}",
                    actor=actor.qualname if actor else None,
                    filename=act.vmf.filename,
                    line=act.line(),
                    bp_id=wp.id,
                )
                return self._suspend(ev, actor)

        # 3. instruction stepping
        if (
            self._step is not None
            and self._step.mode == "isi"
            and actor is not None
            and self._step.actor == actor.qualname
        ):
            ev = StopEvent(
                StopKind.STEP,
                message=f"{fname}+{act.pc}",
                actor=actor.qualname,
                filename=act.vmf.filename,
                line=act.line(),
            )
            return self._suspend(ev, actor)
        return None

    def _on_isa_break(self, interp: Interpreter, act) -> Optional[Suspend]:
        """The ``brk`` instruction (programmatic ISA-level int3)."""
        actor = self._actor_of(interp)
        ev = StopEvent(
            StopKind.ISA_BP,
            message=f"brk in {act.vmf.name}+{act.pc}",
            actor=actor.qualname if actor else None,
            filename=act.vmf.filename,
            line=act.line(),
        )
        return self._suspend(ev, actor)

    # -------------------------------------------------------- breakpoints

    def break_source(self, spec: str, **kwargs) -> SourceBreakpoint:
        """``file.c:42`` or ``42`` (current file) or a function symbol."""
        filename: Optional[str] = None
        line: Optional[int] = None
        if ":" in spec:
            filename, _, line_text = spec.rpartition(":")
            if not line_text.isdigit():
                raise DebuggerError(f"bad location {spec!r}")
            line = int(line_text)
        elif spec.isdigit():
            line = int(spec)
            frame = self.current_frame()
            if frame is None:
                raise DebuggerError("no current frame: give an explicit file:line")
            filename = frame.filename
        else:
            return self.break_function(spec, **kwargs)
        resolved = self.debug_info.line_table.resolve(filename, line)
        if resolved is None:
            raise DebuggerError(f"no executable code at or after {filename}:{line}")
        bp = SourceBreakpoint(filename, resolved, **kwargs)
        self.breakpoints.add(bp)
        return bp

    def break_function(self, symbol: str, **kwargs) -> FunctionBreakpoint:
        if self.debug_info.lookup_function(symbol) is None:
            matches = self.debug_info.match_functions(symbol)
            if len(matches) == 1:
                symbol = matches[0].name
            elif matches:
                names = ", ".join(f.name for f in matches[:6])
                raise DebuggerError(f"symbol {symbol!r} is ambiguous: {names}")
            else:
                raise DebuggerError(f"no function symbol {symbol!r}")
        bp = FunctionBreakpoint(symbol, **kwargs)
        self.breakpoints.add(bp)
        return bp

    def break_api(
        self,
        symbol: str,
        phase: str = "entry",
        actor: Optional[str] = None,
        arg_filters: Optional[Dict[str, Any]] = None,
        stop_fn: Optional[Callable[[FrameworkEvent], bool]] = None,
        **kwargs,
    ) -> ApiBreakpoint:
        """A function breakpoint on a framework API symbol (the paper's
        core capture mechanism).  ``phase='exit'`` = finish breakpoint."""
        bp = ApiBreakpoint(symbol, phase=phase, arg_filters=arg_filters, actor=actor, **kwargs)
        if stop_fn is not None:
            bp.stop = stop_fn  # type: ignore[method-assign]
        self.breakpoints.add(bp)

        def listener(event: FrameworkEvent) -> Optional[Suspend]:
            if bp.deleted or not bp.enabled or not bp.matches(event):
                return None
            if not bp.register_hit():
                return None
            decision = bp.stop(event)
            if not decision:
                return None
            if bp.temporary:
                self.breakpoints.remove(bp.id)
            actor_inst = None
            if event.actor is not None:
                try:
                    actor_inst = self.runtime.find_actor(event.actor)
                except Exception:
                    actor_inst = None
            if isinstance(decision, StopEvent):
                # the breakpoint supplied its own (e.g. dataflow-flavoured)
                # stop description
                ev = decision
                if ev.bp_id is None:
                    ev.bp_id = bp.id
                if ev.payload is None:
                    ev.payload = event
            else:
                ev = StopEvent(
                    StopKind.API_BP,
                    message=f"{event.phase} {event.symbol}",
                    actor=event.actor,
                    bp_id=bp.id,
                    payload=event,
                )
            return self._suspend(ev, actor_inst)

        bp.subscription = self.runtime.bus.subscribe(
            symbol, listener, actor=actor, phase="both" if bp.phase == "both" else bp.phase
        )
        return bp

    def watch(self, expr_text: str, actor: Optional[str] = None, **kwargs) -> Watchpoint:
        if actor is None:
            if self.selected_actor is None:
                raise DebuggerError("no actor selected: watch <expr> needs an actor context")
            actor = self.selected_actor.qualname
        else:
            actor = self.runtime.find_actor(actor).qualname
        wp = Watchpoint(expr_text, actor, **kwargs)
        self.breakpoints.add(wp)
        # prime now: the first observed *change* (even from <unavailable>)
        # should stop, GDB-style
        wp.primed = True
        try:
            actor_inst = self.runtime.find_actor(actor)
            interp = getattr(actor_inst, "interp", None)
            frame = interp.frame if interp is not None else None
            wp.last = self._evaluator(frame=frame, interp=interp, actor=actor_inst).eval_text(
                expr_text
            )
        except (EvalError, Exception):
            wp.last = None
        return wp

    def break_isa(self, spec: str, **kwargs) -> IsaBreakpoint:
        """``FUNC+PC`` instruction breakpoint on the bytecode tier.

        Arms CAP_ISA (the instrumented VM prelude) without deoptimizing:
        the function keeps running as bytecode, stopping before the
        instruction at ``PC`` executes."""
        func_name, sep, pc_text = spec.rpartition("+")
        if not sep or not func_name or not pc_text.isdigit():
            raise DebuggerError(f"bad ISA location {spec!r} (expected FUNC+PC)")
        if self.debug_info.lookup_function(func_name) is None:
            raise DebuggerError(f"no function symbol {func_name!r}")
        bp = IsaBreakpoint(func_name, int(pc_text), **kwargs)
        self.breakpoints.add(bp)
        return bp

    def watch_register(self, func_name: str, reg: int, **kwargs) -> RegisterWatchpoint:
        """Stop when VM register ``reg`` of ``func_name`` changes value.

        Compared before each instruction while the function runs on the
        bytecode tier; like ISA breakpoints it never deoptimizes."""
        if self.debug_info.lookup_function(func_name) is None:
            raise DebuggerError(f"no function symbol {func_name!r}")
        wp = RegisterWatchpoint(func_name, reg, **kwargs)
        self.breakpoints.add(wp)
        return wp

    def finish_breakpoint(self, frame: Optional[Frame] = None, **kwargs) -> FinishBreakpoint:
        actor = self.selected_actor
        if actor is None or actor.interp is None:
            raise DebuggerError("no actor selected")
        frame = frame or self.current_frame()
        if frame is None:
            raise DebuggerError("no frame to finish")
        bp = FinishBreakpoint(frame, actor.interp, **kwargs)
        self.breakpoints.add(bp)
        return bp

    def delete(self, bp_id: int) -> None:
        self.breakpoints.remove(bp_id)

    # ------------------------------------------------------------- control

    def load(self) -> None:
        if not self.runtime.loaded:
            self.runtime.load()

    def run(self, max_dispatches: Optional[int] = None, until: Optional[int] = None) -> StopEvent:
        """Load (if needed) and run until the first stop."""
        self.load()
        return self.cont(max_dispatches=max_dispatches, until=until)

    def cont(self, max_dispatches: Optional[int] = None, until: Optional[int] = None) -> StopEvent:
        if not self.runtime.loaded:
            raise DebuggerError("program is not running (use run)")
        if self._finished:
            return self.last_stop  # type: ignore[return-value]
        stop = self.scheduler.run(until=until, max_dispatches=max_dispatches)
        return self.absorb_kernel_stop(stop)

    def absorb_kernel_stop(self, stop: StopReason) -> StopEvent:
        """Translate a kernel stop someone else's ``scheduler.run`` call
        produced and fire the stop callbacks — the entry point the sharded
        coordinator uses, so that per-quantum horizon stops never reach
        the stop log but real stops (breakpoints, exits, errors) behave
        exactly as if ``cont`` had produced them."""
        ev = self._translate(stop)
        for cb in list(self.stop_callbacks):
            cb(ev)
        return ev

    def _translate(self, stop: StopReason) -> StopEvent:
        if stop.kind == KStopKind.SUSPENDED:
            if isinstance(stop.payload, StopEvent):
                return stop.payload
            ev = StopEvent(StopKind.PAUSED, str(stop.payload))
            self._record_stop(ev, None)
            return ev
        if stop.kind == KStopKind.EXHAUSTED:
            ev = StopEvent(StopKind.EXITED, "all actors terminated", time=stop.time)
            self._finished = True
            self._record_stop(ev, None)
            return ev
        if stop.kind == KStopKind.DEADLOCK:
            outcome = self.runtime.classify_stop(stop)
            if outcome == "exited":
                ev = StopEvent(StopKind.EXITED, "program quiescent", time=stop.time)
                self._finished = True
            else:
                blocked = ", ".join(stop.payload or [])
                ev = StopEvent(
                    StopKind.DEADLOCK,
                    message=f"blocked actors: {blocked}",
                    payload=stop.payload,
                    time=stop.time,
                )
            self._record_stop(ev, None)
            return ev
        if stop.kind == KStopKind.PROCESS_ERROR:
            owner = stop.process.owner if stop.process else None
            actor = owner if isinstance(owner, ActorInst) else None
            ev = StopEvent(
                StopKind.ERROR,
                message=f"{type(stop.payload).__name__}: {stop.payload}",
                actor=getattr(owner, "qualname", None),
                payload=stop.payload,
            )
            self._record_stop(ev, actor)
            return ev
        ev = StopEvent(StopKind.PAUSED, f"kernel stop: {stop.kind.value}", time=stop.time)
        self._record_stop(ev, None)
        return ev

    # -------------------------------------------------------------- stepping

    def _begin_step(self, mode: str) -> StopEvent:
        actor = self.selected_actor
        if actor is None or actor.interp is None or actor.interp.frame is None:
            raise DebuggerError("no stopped actor frame to step from")
        frame = actor.interp.frame
        self._step = _StepState(mode=mode, actor=actor.qualname, depth=frame.depth, line=frame.line)
        # stepping needs the statement path armed even with zero breakpoints
        self._recompute_capabilities()
        return self.cont()

    def step(self) -> StopEvent:
        """Step to a different source line, entering calls."""
        return self._begin_step("step")

    def next_(self) -> StopEvent:
        """Step to a different source line, skipping over calls."""
        return self._begin_step("next")

    def stepi(self) -> StopEvent:
        """Execute exactly one statement of the selected actor — or, when
        the selected frame is live on the bytecode tier, exactly one VM
        instruction (GDB's ``si`` at the ISA level)."""
        if self.vm_activation() is not None:
            return self._begin_step("isi")
        return self._begin_step("stepi")

    def finish(self) -> StopEvent:
        """Run until the selected frame returns."""
        frame = self.current_frame()
        if frame is None:
            raise DebuggerError("no frame to finish")
        self.finish_breakpoint(frame)
        return self.cont()

    # ------------------------------------------------------------ inspection

    def actors(self) -> List[ActorInst]:
        return self.runtime.all_actors()

    def freeze_actor(self, name: str):
        """Withhold one actor from execution (paper §III: during
        concurrent stepping, "let them block the other execution paths
        until a latter investigation")."""
        actor = self.runtime.find_actor(name)
        if actor.process is None:
            raise DebuggerError(f"actor {actor.qualname} has no process yet (not running)")
        self.scheduler.freeze(actor.process)
        return actor

    def thaw_actor(self, name: str):
        actor = self.runtime.find_actor(name)
        if actor.process is None:
            raise DebuggerError(f"actor {actor.qualname} has no process yet (not running)")
        self.scheduler.thaw(actor.process)
        return actor

    def select_actor(self, name: str) -> ActorInst:
        actor = self.runtime.find_actor(name)
        self.selected_actor = actor
        self.selected_frame_index = 0
        return actor

    def backtrace(self) -> List[Frame]:
        actor = self.selected_actor
        if actor is None or getattr(actor, "interp", None) is None:
            return []
        return actor.interp.backtrace()

    def select_frame(self, index: int) -> Frame:
        frames = self.backtrace()
        if not 0 <= index < len(frames):
            raise DebuggerError(f"no frame #{index} (stack depth {len(frames)})")
        self.selected_frame_index = index
        return frames[index]

    def current_frame(self) -> Optional[Frame]:
        frames = self.backtrace()
        if not frames:
            return None
        index = min(self.selected_frame_index, len(frames) - 1)
        return frames[index]

    def _evaluator(self, frame=None, interp=None, actor=None) -> Evaluator:
        actor = actor if actor is not None else self.selected_actor
        interp = interp if interp is not None else getattr(actor, "interp", None)
        frame = frame if frame is not None else self.current_frame()
        structs = dict(self.debug_info.structs)
        structs.update(self.runtime.decl.structs)
        return Evaluator(frame=frame, interp=interp, actor=actor, history=self.history, structs=structs)

    def print_expr(self, text: str) -> str:
        """Evaluate and record in history; returns the ``$N = value`` line."""
        ctype, raw = self._evaluator().eval_text(text)
        index = self.history.record(ctype, raw)
        return f"${index} = {format_typed(ctype, raw)}"

    def eval_expr(self, text: str):
        """Evaluate without recording; returns (ctype, raw)."""
        return self._evaluator().eval_text(text)

    def list_source(self, center: Optional[int] = None, radius: int = 4) -> List[str]:
        frame = self.current_frame()
        if frame is None:
            raise DebuggerError("no source context (program not stopped in actor code)")
        center = center if center is not None else frame.line
        window = self.debug_info.source_window(frame.filename, center, radius)
        out = []
        for n, text in window:
            marker = "->" if n == frame.line else "  "
            out.append(f"{marker} {n}\t{text}")
        return out

    # ---------------------------------------------------- ISA inspection

    def vm_activation(self, frame: Optional[Frame] = None):
        """The VM :class:`~repro.cminus.vm.emulator.Activation` behind a
        frame, or None when the frame runs on an AST tier (after tier
        descent the attribute is cleared, so mixed stacks resolve
        per-frame)."""
        if frame is None:
            actor = self.selected_actor
            interp = getattr(actor, "interp", None) if actor is not None else None
            frame = interp.frame if interp is not None else None
        if frame is None:
            return None
        return getattr(frame, "vm", None)

    def disas_text(self, func_name: Optional[str] = None) -> str:
        """Pretty listing of one bytecode function (``disas [FUNC]``).

        With no argument, disassembles the selected frame's function and
        marks the current pc; otherwise compiles/fetches ``func_name`` (a
        symbol as the selected actor names it) from its VM unit."""
        from ..cminus.vm.asm import disassemble
        from ..cminus.vm.compiler import vm_unit

        act = self.vm_activation(self.current_frame())
        if func_name is None:
            if act is None:
                raise DebuggerError(
                    "selected frame is not running on the bytecode tier "
                    "(give an explicit function name)"
                )
            vmf, pc = act.vmf, act.pc
        else:
            actor = self.selected_actor
            interp = getattr(actor, "interp", None) if actor is not None else None
            if interp is None:
                raise DebuggerError("no actor selected")
            try:
                vu = vm_unit(interp.program)
            except Exception as exc:
                raise DebuggerError(f"bytecode compile failed: {exc}")
            fdef = interp.function(func_name)
            canonical = fdef.name if fdef is not None else None
            vmf = vu.funcs.get(canonical)
            if vmf is None:
                reason = vu.failed.get(canonical)
                if reason is not None:
                    raise DebuggerError(f"{func_name} not compilable: {reason}")
                raise DebuggerError(f"no function symbol {func_name!r}")
            # the unit is shared; an activation runs a renamed copy of it
            pc = act.pc if act is not None and act.vmf.code is vmf.code else None
            vmf = vmf.renamed(func_name)
        text = self.debug_info.sources.get(vmf.filename)
        source = text.splitlines() if text else None
        return disassemble(vmf, pretty=True, source_lines=source, pc=pc)

    def register_rows(self) -> List[tuple]:
        """``(index, name, value)`` rows for ``info registers`` — the
        selected frame must be live on the bytecode tier."""
        act = self.vm_activation(self.current_frame())
        if act is None:
            raise DebuggerError("selected frame is not running on the bytecode tier")
        return act.registers()

    @property
    def finished(self) -> bool:
        return self._finished

"""The resumable Filter-C interpreter.

Execution is a *generator*: the interpreter yields kernel requests
(:class:`~repro.sim.process.Delay`, ``WaitEvent`` forwarded from the
environment, or ``Suspend`` produced by an attached debug hook) at every
statement boundary.  The enclosing simulation process forwards those to the
scheduler with ``yield from``, which is what lets the debugger pause an
actor in the middle of its WORK method and later resume it exactly there —
no unwinding, no re-execution.

Three collaborators plug in:

- :class:`Environment` — supplies ``pedf.io`` / ``pedf.data`` /
  ``pedf.attribute`` and the controller intrinsics.  The PEDF runtime
  implements it; :class:`NullEnvironment` supports plain programs.
- :class:`DebugHook` — notified before every statement, on every call and
  on every return; whatever ``Suspend`` it returns is yielded to the
  kernel.  The base debugger implements it; ``None`` means full speed.
- :class:`CostModel` — simulated cycles charged per statement (the
  platform layer refines it with memory latencies).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import GeneratorType
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ..errors import CMinusRuntimeError
from ..sim.process import Delay, Suspend
from . import ast
from .debuginfo import DebugInfo, FunctionSymbol
from .typesys import (
    BOOL,
    S32,
    STRING,
    ArrayType,
    BoolType,
    CType,
    IntType,
    StructType,
    VoidType,
    wrap_int,
)
from .values import Raw, Value, coerce, copy_raw, default_value, format_value


# --------------------------------------------------------------------- flow


class _Return(Exception):
    def __init__(self, value: Raw):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


# ----------------------------------------------------------------- plug-ins


class Environment:
    """What the program's ``pedf.*`` accesses and intrinsics talk to.

    The generator methods may yield kernel requests (e.g. to block on an
    empty link) — the interpreter forwards them with ``yield from``.
    """

    def io_read(self, iface: str, index: int, ctype: CType):
        """Coroutine: consume/peek the ``index``-th token of this WORK
        invocation from input interface ``iface``; returns a raw value."""
        raise CMinusRuntimeError(f"pedf.io.{iface} not available in this environment")
        yield  # pragma: no cover

    def io_write(self, iface: str, index: int, value: Raw, ctype: CType):
        """Coroutine: push ``value`` as the ``index``-th token produced on
        output interface ``iface`` during this WORK invocation."""
        raise CMinusRuntimeError(f"pedf.io.{iface} not available in this environment")
        yield  # pragma: no cover

    def intrinsic(self, name: str, args: Sequence[Raw]):
        """Coroutine: execute a controller intrinsic; returns a raw value."""
        raise CMinusRuntimeError(f"intrinsic {name}() not available in this environment")
        yield  # pragma: no cover

    def data_get(self, name: str) -> Raw:
        raise CMinusRuntimeError(f"pedf.data.{name} not available in this environment")

    def data_set(self, name: str, value: Raw) -> None:
        raise CMinusRuntimeError(f"pedf.data.{name} not available in this environment")

    def attr_get(self, name: str) -> Raw:
        raise CMinusRuntimeError(f"pedf.attribute.{name} not available in this environment")

    def print_out(self, text: str) -> None:
        """Receive the output of the ``print`` builtin."""


class NullEnvironment(Environment):
    """Environment for plain (actor-less) programs; captures ``print``."""

    def __init__(self) -> None:
        self.printed: List[str] = []

    def print_out(self, text: str) -> None:
        self.printed.append(text)


class DebugHook:
    """Interface the debugger implements to observe/control execution.

    Each method may return ``None`` (keep going) or a kernel request —
    normally :class:`~repro.sim.process.Suspend` — which the interpreter
    yields before proceeding.

    :attr:`capabilities` is the hook-elision bitmask (paper §V: disabling
    instrumentation "would significantly improve performance during the
    non-interactive parts of the execution").  The debugger lowers bits
    whenever no breakpoint of the matching kind could possibly fire; the
    interpreter caches the mask (:meth:`Interpreter.refresh_hook_caps`)
    and then skips the callback entirely — the software analogue of GDB
    physically removing its trap instructions.  The default is
    ``CAP_ALL`` so hand-written hooks observe everything unless a
    debugger actively manages the mask.
    """

    CAP_STATEMENTS = 0x1
    CAP_CALLS = 0x2
    CAP_RETURNS = 0x4
    CAP_DATA = 0x8
    CAP_ALL = 0xF
    #: telemetry rides the same mask but is NOT part of CAP_ALL and is
    #: ignored by tier selection: it only asks the interpreter to count
    #: the simulated cycles it flushes (span cost attribution), which the
    #: bytecode tier can honour without descending
    CAP_TELEMETRY = 0x10
    #: runtime-verification monitors armed (``repro.rv``).  Like
    #: CAP_TELEMETRY, outside CAP_ALL and ignored by tier selection: the
    #: monitors consume framework events, not statement callbacks, so the
    #: bytecode tier keeps running bytecode and the monitors-off cost on
    #: the statement path stays a single predicted branch
    CAP_RV = 0x20
    #: per-instruction observation on the VM tier (ISA breakpoints,
    #: register watchpoints, ``stepi``).  Outside CAP_ALL and ignored by
    #: tier selection — arming it never deoptimizes; it flips the VM
    #: dispatch loop into its instrumented prelude, which calls
    #: :meth:`on_instruction` before every instruction.  The bit is the
    #: ISA-level extension of the hook-elision bitmask: disarmed, the VM
    #: pays one local bool test per instruction
    CAP_ISA = 0x40
    #: attributed profiling (``repro.obs.prof``).  Outside CAP_ALL and
    #: ignored by tier selection — arming it never deoptimizes.  It
    #: implies cycle counting (the profiler charges the same flushed
    #: cycles telemetry cross-checks) and routes each flush through
    #: :attr:`profile_sink` so the cost can be attributed to the live
    #: (actor, call path, tier) at the moment of the flush
    CAP_PROFILE = 0x80

    capabilities: int = CAP_ALL
    #: callable ``(interp, cycles)`` invoked at every cost flush while
    #: CAP_PROFILE is armed (set by the profiler facade; the flush sites
    #: read the cached :attr:`Interpreter._profile` copy)
    profile_sink = None

    def on_statement(self, interp: "Interpreter", stmt: ast.Stmt) -> Optional[Suspend]:
        return None

    def on_call(self, interp: "Interpreter", frame: "Frame") -> Optional[Suspend]:
        return None

    def on_return(self, interp: "Interpreter", frame: "Frame", value: Raw) -> Optional[Suspend]:
        return None

    def on_trap(self, interp: "Interpreter") -> Optional[Suspend]:
        return Suspend("trap")

    def on_instruction(self, interp: "Interpreter", act) -> Optional[Suspend]:
        """Called before each VM instruction while CAP_ISA is armed;
        ``act`` is the :class:`~repro.cminus.vm.emulator.Activation`."""
        return None

    def on_isa_break(self, interp: "Interpreter", act) -> Optional[Suspend]:
        """A ``brk``/``brkc`` break instruction fired (hook attached;
        like :meth:`on_trap`, not capability-gated)."""
        return Suspend("brk")


@dataclass
class CostModel:
    """Simulated cycles charged per executed statement.

    ``batch_cycles`` is the Delay-coalescing threshold: statement costs
    accumulate in :attr:`Interpreter._pending` and are flushed to the
    kernel as one batched ``Delay`` once at least this many cycles are
    pending (and always before dataflow I/O, intrinsics and function
    exit, so observable ordering and sim-time totals are unchanged).
    ``batch_cycles=1`` restores one kernel request per statement.
    """

    default_stmt: int = 1
    call_overhead: int = 2
    batch_cycles: int = 64

    def stmt_cost(self, stmt: ast.Stmt) -> int:
        return self.default_stmt


#: accepted values of ``Interpreter.tier`` / ``RuntimeConfig.interp_tier``:
#: "auto" runs the register-machine bytecode tier (descending to the tree
#: interpreter whenever a statement/call/return hook is armed), "slow"
#: always tree-walks
VALID_TIERS = ("auto", "slow")


# -------------------------------------------------------------------- frames


@dataclass
class Frame:
    """One activation record, visible to the debugger."""

    func: ast.FuncDef
    fsym: Optional[FunctionSymbol]
    depth: int
    line: int
    call_line: int = 0  # line in the *caller* where this call was made
    scopes: List[Dict[str, Value]] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.func.name

    @property
    def filename(self) -> str:
        return self.func.filename

    def lookup(self, name: str) -> Optional[Value]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def variables(self) -> Dict[str, Value]:
        """Flattened view, innermost scope winning."""
        out: Dict[str, Value] = {}
        for scope in self.scopes:
            out.update(scope)
        return out

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"#{self.depth} {self.name} () at {self.filename}:{self.line}"


class CallState:
    """Bookkeeping the debugger reads to know where execution stands."""

    def __init__(self) -> None:
        self.statements_executed = 0
        self.calls_made = 0


# --------------------------------------------------------------- interpreter


class Interpreter:
    """Executes one compilation unit on behalf of one actor."""

    def __init__(
        self,
        program: ast.Program,
        debug_info: DebugInfo,
        env: Optional[Environment] = None,
        hook: Optional[DebugHook] = None,
        cost: Optional[CostModel] = None,
        timed: bool = True,
        name: str = "",
        symbols: Optional[Dict[str, str]] = None,
    ):
        self.program = program
        self.debug_info = debug_info
        #: canonical → mangled function names of this actor (paper §VI-F);
        #: empty for plain programs.  ``program`` and its tier units are
        #: shared by every actor compiled from the same source, so the
        #: names a user sees come from here, never from the AST
        self.symbols: Dict[str, str] = symbols or {}
        # Built once here, so no firing consults the symbol map.  _defs:
        # canonical name → (definition as this actor names it — the
        # shared one when unmangled, else a renamed alias sharing params
        # and body — and its debug-info symbol); frames are built from
        # these.  _entries: this actor's symbol → shared definition.
        self._defs: Dict[str, Tuple[ast.FuncDef, Optional[FunctionSymbol]]] = {}
        self._entries: Dict[str, ast.FuncDef] = {}
        for f in program.functions:
            mangled = self.symbols.get(f.name)
            d = f if mangled is None else replace(f, name=mangled)
            self._defs[f.name] = (d, debug_info.functions.get(d.name))
            self._entries.setdefault(d.name, f)
        self.env = env or NullEnvironment()
        self.hook = hook
        self.cost = cost or CostModel()
        self.timed = timed
        self.name = name or program.filename
        self.frames: List[Frame] = []
        self.globals: Dict[str, Value] = {}
        self.state = CallState()
        self._globals_ready = False
        #: tier override: "auto" runs bytecode whenever no
        #: statement/call/return hook could fire; "slow" always tree-walks
        self.tier = "auto"
        # batched-Delay accumulator (cycles charged but not yet yielded)
        self._pending = 0
        self._batch_limit = max(1, self.cost.batch_cycles)
        #: lifetime simulated cycles this interpreter has flushed to the
        #: kernel, counted only while CAP_TELEMETRY is armed — the span
        #: builder's busy-time cross-check
        self.cycles_flushed = 0
        self._count_cycles = False
        self._profile = None
        self._rv_armed = False
        self._isa_armed = False
        self._vm_trace = False
        # constant per-statement cost when the cost model is not refined;
        # None forces a stmt_cost() call per boundary
        self._stmt_cost_const: Optional[int] = (
            self.cost.default_stmt
            if type(self.cost).stmt_cost is CostModel.stmt_cost
            else None
        )
        self._vm_unit = None  # lazily built VmUnit (bytecode tier)
        self._vm_failed = False
        #: simulated cycles attributed per executed VM opcode (keyed by
        #: opcode number), counted only while CAP_TELEMETRY is armed —
        #: never added to ``_pending``, so Delay streams stay tier-exact
        self.opcode_cycles: Dict[int, int] = {}
        # hook-elision fast-path flags, cached from hook.capabilities so the
        # per-statement checkpoint is one attribute test when disarmed
        self._want_stmt = True
        self._want_call = True
        self._want_ret = True
        self._fast_ok = False
        self.refresh_hook_caps()

    def refresh_hook_caps(self) -> None:
        """Re-cache the hook's capability mask (call after changing either
        ``self.hook`` or ``hook.capabilities``).

        Also recomputes the tier-selection flag: ``_fast_ok`` is the
        bytecode tier's green light and doubles as its **tier-descent
        flag** — arming a statement/call/return capability while VM
        activations are live drops it to False, and the VM checks it at
        each statement boundary, descending into this tree-walking
        interpreter mid-function.
        """
        caps = DebugHook.CAP_ALL if self.hook is None else self.hook.capabilities
        self._want_stmt = bool(caps & DebugHook.CAP_STATEMENTS)
        self._want_call = bool(caps & DebugHook.CAP_CALLS)
        self._want_ret = bool(caps & DebugHook.CAP_RETURNS)
        if self.hook is None:
            self._fast_ok = True
        else:
            self._fast_ok = not (
                caps
                & (DebugHook.CAP_STATEMENTS | DebugHook.CAP_CALLS | DebugHook.CAP_RETURNS)
            )
        # cycle counting is off when hook is None (caps defaults to
        # CAP_ALL, which includes neither the telemetry nor the profile
        # bit); the profiler needs the same flushed-cycle accounting
        self._count_cycles = bool(
            caps & (DebugHook.CAP_TELEMETRY | DebugHook.CAP_PROFILE)
        )
        # attributed-profiling sink, cached so a flush site pays a single
        # None test when profiling is disarmed (CAP_PROFILE must never
        # flip _fast_ok)
        self._profile = (
            self.hook.profile_sink
            if self.hook is not None and caps & DebugHook.CAP_PROFILE
            else None
        )
        # RV monitors observe framework events, never statements; the bit
        # is cached only so tooling can see it rode the same mask without
        # perturbing tier selection (CAP_RV must never flip _fast_ok)
        self._rv_armed = bool(caps & DebugHook.CAP_RV)
        # ISA-level observation flips the VM dispatch loop into its
        # instrumented prelude without deoptimizing (CAP_ISA must never
        # flip _fast_ok); telemetry rides the same prelude for per-opcode
        # cycle attribution
        self._isa_armed = bool(caps & DebugHook.CAP_ISA)
        self._vm_trace = self._isa_armed or self._count_cycles

    # ------------------------------------------------------------- queries

    @property
    def frame(self) -> Optional[Frame]:
        return self.frames[-1] if self.frames else None

    def backtrace(self) -> List[Frame]:
        return list(reversed(self.frames))

    def capture_frames(self) -> Tuple[Tuple[str, int], ...]:
        """``(function name, current line)`` per live frame, outermost
        first — the interpreter's contribution to a deep machine-state
        snapshot.  Execution *position* lives in Python generator frames
        and cannot be pickled; this captures the observable summary used
        to fingerprint a parked resident machine.  Tier-variant: at a
        batched-Delay flush the VM has not yet moved the frame to the
        boundary's line, while the tree interpreter already has."""
        return tuple((f.name, f.line) for f in self.frames)

    def function(self, symbol: str) -> Optional[ast.FuncDef]:
        """The shared definition behind ``symbol`` as this actor names it."""
        return self._entries.get(symbol)

    @property
    def _vm_unit(self):
        """The (shared) VmUnit this interpreter runs bytecode from."""
        return self._vm_bound

    @_vm_unit.setter
    def _vm_unit(self, vu) -> None:
        # binding a unit also fixes _vm_funcs, its functions under this
        # actor's names (canonical keys; renamed copies share the code),
        # which is what activations run — so ISA stops, register
        # watchpoints and ``disas`` see the mangled symbols
        self._vm_bound = vu
        if vu is None or not self.symbols:
            self._vm_funcs = None if vu is None else vu.funcs
        else:
            self._vm_funcs = {
                n: vmf.renamed(self.symbols.get(n, n)) for n, vmf in vu.funcs.items()
            }

    # --------------------------------------------------------------- entry

    def run_function(self, name: str, args: Sequence[Raw] = ()):
        """Coroutine: execute function ``name`` (this actor's symbol for
        it) to completion.

        Returns the function's raw return value.  Drive it inside a
        simulation process (``yield from interp.run_function(...)``) or
        synchronously with :func:`run_sync`.
        """
        func = self._entries.get(name)
        if func is None:
            raise CMinusRuntimeError(f"no function {name!r} in {self.program.filename}")
        if not self._globals_ready:
            yield from self._init_globals()
        if self._use_vm(func.name):
            from .vm.emulator import call_vm

            ret = yield from call_vm(self, func.name, list(args))
        else:
            ret = yield from self._call_user(func, list(args), call_line=0)
        if self._pending:
            yield from self._flush_cost()
        return ret

    def _use_vm(self, name: str) -> bool:
        """Tier selection: bytecode unless a statement/call/return hook is
        armed, the tier is forced slow, or the function failed to lower."""
        if not self._fast_ok or self.tier == "slow":
            return False
        vu = self._vm_unit
        if vu is None:
            if self._vm_failed:
                return False
            try:
                from .vm.compiler import vm_unit

                vu = self._vm_unit = vm_unit(self.program)
            except Exception:  # compiler trouble must never break execution
                self._vm_failed = True
                return False
        return vu.supports(name)

    def _init_globals(self):
        self._globals_ready = True
        for g in self.program.globals:
            raw = default_value(g.ctype)
            if g.init is not None:
                raw = coerce((yield from self._eval(g.init)), g.ctype)
            self.globals[g.name] = Value(g.ctype, raw)

    # ---------------------------------------------------------------- calls

    def _call_user(self, func: ast.FuncDef, args: List[Raw], call_line: int):
        func, fsym = self._defs[func.name]
        if len(args) != len(func.params):
            raise CMinusRuntimeError(
                f"{func.name}() expects {len(func.params)} args, got {len(args)}"
            )
        frame = Frame(
            func=func,
            fsym=fsym,
            depth=len(self.frames),
            line=func.line,
            call_line=call_line,
        )
        params = {p.name: Value(p.ctype, coerce(a, p.ctype)) for p, a in zip(func.params, args)}
        frame.scopes.append(params)
        self.frames.append(frame)
        self.state.calls_made += 1
        hook = self.hook
        if hook is not None and self._want_call:
            req = hook.on_call(self, frame)
            if req is not None:
                yield req
        if self.timed and self.cost.call_overhead:
            self._pending += self.cost.call_overhead
        ret: Raw = 0 if not isinstance(func.ret, VoidType) else 0
        try:
            yield from self._exec_block(func.body, new_scope=True)
            if not isinstance(func.ret, VoidType):
                ret = default_value(func.ret)
        except _Return as r:
            ret = r.value if r.value is not None else 0
        hook = self.hook
        if hook is not None and self._want_ret:
            req = hook.on_return(self, frame, ret)
            self.frames.pop()
            if req is not None:
                yield req
        else:
            self.frames.pop()
        return ret

    # ----------------------------------------------------------- statements

    def _exec_block(self, block: ast.Block, new_scope: bool = True):
        frame = self.frames[-1]
        if new_scope:
            frame.scopes.append({})
        try:
            for stmt in block.body:
                yield from self._exec_stmt(stmt)
        finally:
            if new_scope:
                frame.scopes.pop()

    def _checkpoint(self, stmt: ast.Stmt):
        """Per-statement debugger + cost hook (the pause point).

        Statement costs are *charged* here but only *flushed* to the
        kernel (as one batched ``Delay``) once ``batch_cycles`` have
        accumulated; genuine blocking points flush eagerly via
        :meth:`_io_read` / :meth:`_io_write` / :meth:`_intrinsic`, and
        :meth:`run_function` flushes the remainder on exit.  The flush
        points are purely structural (never hook- or stop-dependent) so
        both execution tiers issue byte-identical kernel-request streams
        and dispatch counting stays stop-invariant for the replay
        journal.
        """
        frame = self.frames[-1]
        frame.line = stmt.line
        self.state.statements_executed += 1
        timed = self.timed
        if timed and self._pending >= self._batch_limit:
            p = self._pending
            self._pending = 0
            if self._count_cycles:
                self.cycles_flushed += p
                if self._profile is not None:
                    self._profile(self, p)
            yield Delay(p)
        hook = self.hook
        if hook is not None and self._want_stmt:
            req = hook.on_statement(self, stmt)
            if req is not None:
                yield req
        if timed:
            c = self._stmt_cost_const
            if c is None:
                c = self.cost.stmt_cost(stmt)
            self._pending += c

    def _flush_cost(self):
        """Yield the accumulated statement cost as one kernel request."""
        p = self._pending
        if p:
            self._pending = 0
            if self._count_cycles:
                self.cycles_flushed += p
                if self._profile is not None:
                    self._profile(self, p)
            yield Delay(p)

    # Environment access points shared by both tiers: every genuine
    # blocking point flushes pending cost first, so the kernel observes
    # time in the same order as token traffic regardless of batching.

    def _io_read(self, iface: str, index: int, ctype: Optional[CType]):
        if self._pending:
            yield from self._flush_cost()
        return (yield from self.env.io_read(iface, index, ctype))

    def _io_write(self, iface: str, index: int, value: Raw, ctype: Optional[CType]):
        if self._pending:
            yield from self._flush_cost()
        return (yield from self.env.io_write(iface, index, value, ctype))

    def _intrinsic(self, name: str, args: Sequence[Raw]):
        if self._pending:
            yield from self._flush_cost()
        return (yield from self.env.intrinsic(name, args))

    def _exec_stmt(self, stmt: ast.Stmt):
        if isinstance(stmt, ast.Block):
            yield from self._exec_block(stmt)
            return
        if isinstance(stmt, ast.If):
            yield from self._checkpoint(stmt)
            cond = yield from self._eval(stmt.cond)
            if cond:
                yield from self._exec_stmt(stmt.then)
            elif stmt.other is not None:
                yield from self._exec_stmt(stmt.other)
            return
        if isinstance(stmt, ast.While):
            yield from self._while_from_header(stmt)
            return
        if isinstance(stmt, ast.DoWhile):
            while True:
                try:
                    yield from self._exec_stmt(stmt.body)
                except _Break:
                    return
                except _Continue:
                    pass
                cont = yield from self._dowhile_cond(stmt)
                if not cont:
                    return
        if isinstance(stmt, ast.For):
            frame = self.frames[-1]
            frame.scopes.append({})
            try:
                if stmt.init is not None:
                    yield from self._exec_stmt(stmt.init)
                yield from self._for_from_header(stmt)
            finally:
                frame.scopes.pop()
            return
        if isinstance(stmt, ast.Decl):
            yield from self._checkpoint(stmt)
            raw = default_value(stmt.ctype)
            if stmt.init is not None:
                raw = coerce((yield from self._eval(stmt.init)), stmt.ctype)
            self.frames[-1].scopes[-1][stmt.name] = Value(stmt.ctype, raw)
            return
        if isinstance(stmt, ast.Assign):
            yield from self._checkpoint(stmt)
            yield from self._exec_assign(stmt)
            return
        if isinstance(stmt, ast.IncDec):
            yield from self._checkpoint(stmt)
            ref = yield from self._resolve_ref(stmt.target)
            old = self._ref_get(ref, stmt.target)
            delta = 1 if stmt.op == "++" else -1
            self._ref_set(ref, old + delta, stmt.target.ctype)
            return
        if isinstance(stmt, ast.ExprStmt):
            yield from self._checkpoint(stmt)
            yield from self._eval(stmt.expr)
            return
        if isinstance(stmt, ast.Return):
            yield from self._checkpoint(stmt)
            value: Raw = 0
            if stmt.value is not None:
                func = self.frames[-1].func
                value = coerce((yield from self._eval(stmt.value)), func.ret)
            raise _Return(value)
        if isinstance(stmt, ast.Break):
            yield from self._checkpoint(stmt)
            raise _Break()
        if isinstance(stmt, ast.Continue):
            yield from self._checkpoint(stmt)
            raise _Continue()
        raise CMinusRuntimeError(f"unknown statement {type(stmt).__name__}")  # pragma: no cover

    # Loop bodies from their per-iteration boundary.  These are both the
    # slow tier's implementation and the VM's tier-descent continuations:
    # a VM loop-header boundary that finds hooks armed delegates the rest
    # of the loop here, mid-function.

    def _while_from_header(self, stmt: ast.While):
        while True:
            yield from self._checkpoint(stmt)
            cond = yield from self._eval(stmt.cond)
            if not cond:
                return
            try:
                yield from self._exec_stmt(stmt.body)
            except _Break:
                return
            except _Continue:
                continue

    def _dowhile_cond(self, stmt: ast.DoWhile):
        """One do/while condition boundary; returns whether to loop again."""
        yield from self._checkpoint(stmt)
        return (yield from self._eval(stmt.cond))

    def _dowhile_from_cond(self, stmt: ast.DoWhile):
        """Deopt continuation: resume a do/while at its condition check."""
        while True:
            cont = yield from self._dowhile_cond(stmt)
            if not cont:
                return
            try:
                yield from self._exec_stmt(stmt.body)
            except _Break:
                return
            except _Continue:
                pass

    def _for_from_header(self, stmt: ast.For):
        """The for loop from its header boundary (scope and init already
        in place — the caller owns the loop scope)."""
        while True:
            yield from self._checkpoint(stmt)
            if stmt.cond is not None:
                cond = yield from self._eval(stmt.cond)
                if not cond:
                    return
            try:
                yield from self._exec_stmt(stmt.body)
            except _Break:
                return
            except _Continue:
                pass
            if stmt.step is not None:
                yield from self._exec_stmt(stmt.step)

    def _exec_assign(self, stmt: ast.Assign):
        value = yield from self._eval(stmt.value)
        target = stmt.target
        # dataflow assignment: pushing a token
        if isinstance(target, ast.PedfIo):
            index = yield from self._eval(target.index)
            raw = coerce(value, target.ctype)
            yield from self._io_write(target.iface, index, raw, target.ctype)
            return
        ref = yield from self._resolve_ref(target)
        if stmt.op != "=":
            old = self._ref_get(ref, target)
            value = self._apply_binop(stmt.op[:-1], old, value, target.ctype, stmt.line)
        self._ref_set(ref, value, target.ctype)

    # ----------------------------------------------------------- references

    def _resolve_ref(self, expr: ast.Expr):
        """Coroutine resolving an lvalue to a (kind, ...) reference tuple."""
        if isinstance(expr, ast.Ident):
            slot = self.frames[-1].lookup(expr.name) or self.globals.get(expr.name)
            if slot is None:
                raise CMinusRuntimeError(f"undefined variable {expr.name!r}")
            return ("slot", slot)
        if isinstance(expr, ast.Index):
            base_ref = yield from self._resolve_ref(expr.base)
            container = self._ref_get(base_ref, expr.base)
            index = yield from self._eval(expr.index)
            if not isinstance(container, list):
                raise CMinusRuntimeError("indexing a non-array value")
            if not 0 <= index < len(container):
                raise CMinusRuntimeError(
                    f"array index {index} out of bounds [0, {len(container)}) "
                    f"at {self.frames[-1].filename}:{expr.line}"
                )
            return ("elem", container, index)
        if isinstance(expr, ast.Member):
            base_ref = yield from self._resolve_ref(expr.base)
            container = self._ref_get(base_ref, expr.base)
            if not isinstance(container, dict):
                raise CMinusRuntimeError("member access on a non-struct value")
            return ("field", container, expr.member)
        if isinstance(expr, ast.PedfData):
            return ("data", expr.name)
        raise CMinusRuntimeError(f"not an lvalue: {type(expr).__name__}")

    def _ref_get(self, ref, expr: ast.Expr) -> Raw:
        kind = ref[0]
        if kind == "slot":
            return ref[1].data
        if kind == "elem":
            return ref[1][ref[2]]
        if kind == "field":
            return ref[1][ref[2]]
        if kind == "data":
            return self.env.data_get(ref[1])
        raise CMinusRuntimeError(f"bad reference {ref!r}")  # pragma: no cover

    def _ref_set(self, ref, value: Raw, ctype: Optional[CType]) -> None:
        kind = ref[0]
        if kind == "slot":
            slot: Value = ref[1]
            slot.data = coerce(value, slot.ctype)
        elif kind == "elem":
            ref[1][ref[2]] = coerce(value, ctype) if ctype else value
        elif kind == "field":
            ref[1][ref[2]] = coerce(value, ctype) if ctype else value
        elif kind == "data":
            self.env.data_set(ref[1], value)
        else:  # pragma: no cover
            raise CMinusRuntimeError(f"bad reference {ref!r}")

    # ---------------------------------------------------------- expressions

    def _eval(self, expr: ast.Expr):
        """Coroutine evaluating an expression to a raw value."""
        if isinstance(expr, ast.NumberLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.StringLit):
            return expr.value
        if isinstance(expr, ast.Ident):
            slot = None
            if self.frames:
                slot = self.frames[-1].lookup(expr.name)
            if slot is None:
                slot = self.globals.get(expr.name)
            if slot is None:
                raise CMinusRuntimeError(f"undefined variable {expr.name!r}")
            return slot.data
        if isinstance(expr, ast.Unary):
            operand = yield from self._eval(expr.operand)
            return self._apply_unop(expr.op, operand, expr.ctype)
        if isinstance(expr, ast.Binary):
            if expr.op == "&&":
                left = yield from self._eval(expr.left)
                if not left:
                    return False
                right = yield from self._eval(expr.right)
                return bool(right)
            if expr.op == "||":
                left = yield from self._eval(expr.left)
                if left:
                    return True
                right = yield from self._eval(expr.right)
                return bool(right)
            left = yield from self._eval(expr.left)
            right = yield from self._eval(expr.right)
            return self._apply_binop(expr.op, left, right, expr.ctype, expr.line)
        if isinstance(expr, ast.Ternary):
            cond = yield from self._eval(expr.cond)
            branch = expr.then if cond else expr.other
            value = yield from self._eval(branch)
            if isinstance(expr.ctype, (IntType, BoolType)):
                return coerce(value, expr.ctype)
            return value
        if isinstance(expr, ast.Cast):
            value = yield from self._eval(expr.operand)
            return coerce(value, expr.target)
        if isinstance(expr, ast.Index):
            base = yield from self._eval(expr.base)
            index = yield from self._eval(expr.index)
            if not isinstance(base, list):
                raise CMinusRuntimeError("indexing a non-array value")
            if not 0 <= index < len(base):
                raise CMinusRuntimeError(
                    f"array index {index} out of bounds [0, {len(base)}) "
                    f"at {self.frames[-1].filename}:{expr.line}"
                )
            return base[index]
        if isinstance(expr, ast.Member):
            base = yield from self._eval(expr.base)
            if not isinstance(base, dict):
                raise CMinusRuntimeError("member access on a non-struct value")
            return base[expr.member]
        if isinstance(expr, ast.Call):
            return (yield from self._eval_call(expr))
        if isinstance(expr, ast.PedfIo):
            index = yield from self._eval(expr.index)
            return (yield from self._io_read(expr.iface, index, expr.ctype))
        if isinstance(expr, ast.PedfData):
            return self.env.data_get(expr.name)
        if isinstance(expr, ast.PedfAttr):
            return self.env.attr_get(expr.name)
        raise CMinusRuntimeError(f"unknown expression {type(expr).__name__}")  # pragma: no cover

    def _eval_call(self, expr: ast.Call):
        args: List[Raw] = []
        for a in expr.args:
            args.append((yield from self._eval(a)))
        name = expr.name
        if expr.is_builtin:
            if name == "abs":
                return wrap_int(abs(args[0]), S32)
            if name == "min":
                return wrap_int(min(args[0], args[1]), S32)
            if name == "max":
                return wrap_int(max(args[0], args[1]), S32)
            if name == "clip":
                x, lo, hi = args
                return wrap_int(max(lo, min(hi, x)), S32)
            if name == "print":
                parts = []
                for a, node in zip(args, expr.args):
                    if isinstance(node.ctype, StructType):
                        parts.append(format_value(node.ctype, a))
                    elif isinstance(a, bool):
                        parts.append("true" if a else "false")
                    else:
                        parts.append(str(a))
                self.env.print_out(" ".join(parts))
                return 0
            if name == "trap":
                if self.hook:
                    req = self.hook.on_trap(self)
                    if req is not None:
                        yield req
                return 0
            # controller intrinsic
            return (yield from self._intrinsic(name, args))
        func = self.program.function(name)
        if func is None:
            raise CMinusRuntimeError(f"call to undefined function {name!r}")
        call_line = self.frames[-1].line if self.frames else 0
        return (yield from self._call_user(func, args, call_line))

    # ------------------------------------------------------------ operators

    def _apply_unop(self, op: str, operand: Raw, ctype: Optional[CType]) -> Raw:
        if op == "!":
            return not operand
        if op == "~":
            result = ~int(operand)
        elif op == "-":
            result = -int(operand)
        else:  # '+'
            result = int(operand)
        if isinstance(ctype, IntType):
            return wrap_int(result, ctype)
        return wrap_int(result, S32)

    def _apply_binop(self, op: str, left: Raw, right: Raw, ctype: Optional[CType], line: int) -> Raw:
        if op in ("==", "!=", "<", ">", "<=", ">="):
            li, ri = int(left), int(right)
            return {
                "==": li == ri,
                "!=": li != ri,
                "<": li < ri,
                ">": li > ri,
                "<=": li <= ri,
                ">=": li >= ri,
            }[op]
        li, ri = int(left), int(right)
        if op == "+":
            result = li + ri
        elif op == "-":
            result = li - ri
        elif op == "*":
            result = li * ri
        elif op == "/":
            if ri == 0:
                raise CMinusRuntimeError(f"division by zero at line {line}")
            result = abs(li) // abs(ri) * (1 if (li >= 0) == (ri >= 0) else -1)
        elif op == "%":
            if ri == 0:
                raise CMinusRuntimeError(f"modulo by zero at line {line}")
            result = abs(li) % abs(ri) * (1 if li >= 0 else -1)
        elif op == "&":
            result = li & ri
        elif op == "|":
            result = li | ri
        elif op == "^":
            result = li ^ ri
        elif op == "<<":
            if ri < 0 or ri > 32:
                raise CMinusRuntimeError(f"shift amount {ri} out of range at line {line}")
            result = li << ri
        elif op == ">>":
            if ri < 0 or ri > 32:
                raise CMinusRuntimeError(f"shift amount {ri} out of range at line {line}")
            if isinstance(ctype, IntType) and not ctype.signed:
                result = (li & ((1 << ctype.bits) - 1)) >> ri
            else:
                result = li >> ri
        else:  # pragma: no cover
            raise CMinusRuntimeError(f"unknown operator {op!r}")
        if isinstance(ctype, IntType):
            return wrap_int(result, ctype)
        return wrap_int(result, S32)


# -------------------------------------------------------------- pure driver


def run_sync(gen: Generator, allow_delay: bool = True):
    """Drive an interpreter coroutine synchronously (no scheduler).

    ``Delay``/``Yield`` requests are skipped (time does not exist here);
    anything else — ``WaitEvent``, ``Suspend`` — means the computation
    would block or stop, which a synchronous caller cannot honour.
    """
    from ..sim.process import Delay as _Delay, Yield as _Yield

    try:
        req = next(gen)
        while True:
            if isinstance(req, (_Delay, _Yield)) and allow_delay:
                req = gen.send(None)
            else:
                raise CMinusRuntimeError(
                    f"expression cannot be evaluated synchronously (would {type(req).__name__})"
                )
    except StopIteration as stop:
        return stop.value


class PureEvaluator:
    """Side-effect-free expression evaluation against a stopped frame.

    Used by the debugger for ``print``, breakpoint conditions and
    watchpoints.  Dataflow I/O and intrinsics are forbidden (they would
    consume tokens or alter scheduling); ``pedf.data`` / ``pedf.attribute``
    reads are allowed because they are non-destructive.
    """

    class _PureEnv(Environment):
        def __init__(self, inner: Environment):
            self.inner = inner

        def io_read(self, iface, index, ctype):
            raise CMinusRuntimeError(
                f"cannot read pedf.io.{iface} in a debugger expression (it would consume a token); "
                "use the dataflow 'iface' commands to inspect links"
            )
            yield  # pragma: no cover

        def io_write(self, iface, index, value, ctype):
            raise CMinusRuntimeError(
                f"cannot write pedf.io.{iface} in a debugger expression (it would push a token); "
                "use 'iface ... insert' to inject tokens"
            )
            yield  # pragma: no cover

        def intrinsic(self, name, args):
            raise CMinusRuntimeError(f"cannot call intrinsic {name}() in a debugger expression")
            yield  # pragma: no cover

        def data_get(self, name):
            return self.inner.data_get(name)

        def data_set(self, name, value):
            raise CMinusRuntimeError(f"cannot write pedf.data.{name} in a pure expression")

        def attr_get(self, name):
            return self.inner.attr_get(name)

    def __init__(self, interp: Interpreter):
        self.interp = interp

    def eval(self, expr: ast.Expr) -> Raw:
        interp = self.interp
        saved_env, saved_hook, saved_timed = interp.env, interp.hook, interp.timed
        saved_pending = interp._pending  # a pure eval must not flush the
        interp.env = self._PureEnv(saved_env)  # stopped run's batched cost
        interp.hook = None
        interp.timed = False
        try:
            return run_sync(interp._eval(expr))
        finally:
            interp.env, interp.hook, interp.timed = saved_env, saved_hook, saved_timed
            interp._pending = saved_pending

"""The framework's exported API symbols and their event bus.

The paper's capture mechanism (§V): *function breakpoints* are set "at the
entry and exit points of the programming-model related functions exported
by the dataflow framework"; argument parsing relies on the API definition
and debug information, and *finish breakpoints* catch return points.

Here every framework operation is routed through :meth:`FrameworkAPI.call`
with a well-known symbol name.  Attaching to a symbol's entry/exit is the
exact analogue of planting a breakpoint on the corresponding function —
including *actor-qualified* symbols (``pedf_rt_push@pred.ipred``), which
model the "framework cooperation" optimisation of §V: the framework
exposes actor-specific locations so only the actors of interest trap.

Listeners may return a :class:`~repro.sim.process.Suspend`, which the API
wrapper yields into the kernel — stopping the whole platform at that
event, with the triggering actor's state intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..sim.process import Suspend
from ..sim.replay import DataflowEvent

# --------------------------------------------------------------- symbol set

SYM_REGISTER_PROGRAM = "pedf_rt_register_program"
SYM_REGISTER_MODULE = "pedf_rt_register_module"
SYM_REGISTER_ACTOR = "pedf_rt_register_actor"
SYM_REGISTER_IFACE = "pedf_rt_register_iface"
SYM_BIND = "pedf_rt_bind"
SYM_PUSH = "pedf_rt_push"
SYM_POP = "pedf_rt_pop"
SYM_ACTOR_START = "pedf_rt_actor_start"
SYM_ACTOR_SYNC = "pedf_rt_actor_sync"
SYM_WAIT_INIT = "pedf_rt_wait_actor_init"
SYM_WAIT_SYNC = "pedf_rt_wait_actor_sync"
SYM_STEP_BEGIN = "pedf_rt_step_begin"
SYM_STEP_END = "pedf_rt_step_end"
SYM_WORK_ENTER = "pedf_rt_work_enter"
SYM_WORK_EXIT = "pedf_rt_work_exit"
SYM_SET_PRED = "pedf_rt_set_pred"

#: every exported symbol, with a human description (the "API definition"
#: the debugger parses arguments against)
SYMBOLS: Dict[str, str] = {
    SYM_REGISTER_PROGRAM: "program elaboration begins/ends (args: program)",
    SYM_REGISTER_MODULE: "a module is registered (args: module)",
    SYM_REGISTER_ACTOR: "an actor is registered (args: module, name, kind, resource, work_symbol)",
    SYM_REGISTER_IFACE: "an interface is registered (args: actor, iface, direction, ctype)",
    SYM_BIND: "a link is created (args: src_actor, src_iface, dst_actor, dst_iface, kind, capacity, memory, dma)",
    SYM_PUSH: "a token is pushed on a link (args: actor, iface, index, value, link)",
    SYM_POP: "a token is popped from a link (args: actor, iface, index, link; retval: token)",
    SYM_ACTOR_START: "a controller schedules a filter (args: controller, actor)",
    SYM_ACTOR_SYNC: "a controller requests end-of-step (args: controller, actor)",
    SYM_WAIT_INIT: "controller waits for scheduled filters to begin (args: controller)",
    SYM_WAIT_SYNC: "controller waits for filters to finish the step (args: controller)",
    SYM_STEP_BEGIN: "a controller step begins (args: controller, step)",
    SYM_STEP_END: "a controller step ends (args: controller, step)",
    SYM_WORK_ENTER: "a filter WORK method starts (args: actor, invocation)",
    SYM_WORK_EXIT: "a filter WORK method returns (args: actor, invocation)",
    SYM_SET_PRED: "a scheduling predicate changes (args: module, name, value)",
}

#: symbols whose events carry a link name (push/pop, both phases)
LINK_SYMBOLS = frozenset((SYM_PUSH, SYM_POP))
#: symbols whose events carry a scheduling target filter (both phases)
TARGET_SYMBOLS = frozenset((SYM_ACTOR_START, SYM_ACTOR_SYNC))

#: builds a DataflowEvent without the generated ``__new__``'s Python
#: frame (same tuple as ``DataflowEvent(...)``, made once per event)
_new_flow = tuple.__new__


@dataclass(slots=True)
class FrameworkEvent:
    """One observable framework operation (entry or exit)."""

    phase: str  # "entry" | "exit"
    symbol: str
    args: Dict[str, Any]
    actor: Optional[str] = None  # qualified actor name, e.g. "pred.ipred"
    retval: Any = None  # exit phase only
    time: int = 0
    _flow: Optional[DataflowEvent] = field(default=None, init=False, repr=False, compare=False)

    @property
    def flow(self) -> DataflowEvent:
        """The event's journal-derivable projection, built on first use
        and shared by every consumer after that (journal, telemetry, RV).

        Only fields a replay journal can recover are filled: the link of
        a push/pop, the token seq of a push/pop exit, the target filter
        of an actor_start/actor_sync."""
        flow = self._flow
        if flow is None:
            symbol = self.symbol
            seq = link = target = None
            if symbol in LINK_SYMBOLS:
                link = self.args.get("link")
                if self.phase == "exit":
                    seq = getattr(self.retval, "seq", None)
            elif symbol in TARGET_SYMBOLS:
                target = self.args.get("actor")
            flow = self._flow = _new_flow(
                DataflowEvent, (self.time, self.phase, symbol, self.actor or "", seq, link, target)
            )
        return flow

    @property
    def qualified_symbol(self) -> str:
        return f"{self.symbol}@{self.actor}" if self.actor else self.symbol

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        rv = f" -> {self.retval}" if self.phase == "exit" and self.retval is not None else ""
        return f"[{self.time}] {self.phase} {self.qualified_symbol}({self.args}){rv}"


Listener = Callable[[FrameworkEvent], Optional[Suspend]]


@dataclass
class Subscription:
    bus: "FrameworkEventBus"
    key: str
    phase: str
    listener: Listener
    active: bool = True

    def unsubscribe(self) -> None:
        if self.active:
            self.bus._remove(self)
            self.active = False


class FrameworkEventBus:
    """Dispatches framework events to debugger-side listeners.

    Subscription keys: a bare symbol (all actors), an actor-qualified
    symbol ``sym@actor`` (framework-cooperation mode), or ``"*"`` (every
    event).  ``phase`` filters entry/exit (``"both"`` for either).
    """

    def __init__(self) -> None:
        self._listeners: Dict[str, List[Subscription]] = {}
        self.emitted = 0
        self.per_symbol: Dict[str, int] = {}

    # ------------------------------------------------------------- subscribe

    def subscribe(
        self,
        symbol: str,
        listener: Listener,
        actor: Optional[str] = None,
        phase: str = "both",
    ) -> Subscription:
        if phase not in ("entry", "exit", "both"):
            raise ValueError(f"bad phase {phase!r}")
        key = f"{symbol}@{actor}" if actor else symbol
        sub = Subscription(self, key, phase, listener)
        self._listeners.setdefault(key, []).append(sub)
        return sub

    def _remove(self, sub: Subscription) -> None:
        subs = self._listeners.get(sub.key, [])
        try:
            subs.remove(sub)
        except ValueError:
            pass
        if not subs:
            self._listeners.pop(sub.key, None)

    @property
    def has_listeners(self) -> bool:
        return bool(self._listeners)

    def wants(self, symbol: str, actor: Optional[str] = None) -> bool:
        """True if any subscription could observe this symbol — the §V
        arm/disarm test: when capture is narrowed (``none`` /
        actor-specific), unobserved operations skip event materialisation
        entirely instead of filtering events after the fact."""
        listeners = self._listeners
        if not listeners:
            return False
        if symbol in listeners or "*" in listeners:
            return True
        return actor is not None and f"{symbol}@{actor}" in listeners

    def count_unobserved(self, symbol: str) -> None:
        """Keep the traffic counters truthful for an elided emit."""
        self.emitted += 1
        self.per_symbol[symbol] = self.per_symbol.get(symbol, 0) + 1

    # ----------------------------------------------------------------- emit

    def emit(self, event: FrameworkEvent) -> Optional[Suspend]:
        """Run every matching listener; the first Suspend requested wins
        (but all listeners still observe the event)."""
        self.emitted += 1
        self.per_symbol[event.symbol] = self.per_symbol.get(event.symbol, 0) + 1
        if not self._listeners:
            return None
        suspend: Optional[Suspend] = None
        keys = [event.symbol]
        if event.actor is not None:
            keys.append(event.qualified_symbol)
        keys.append("*")
        for key in keys:
            subs = self._listeners.get(key)
            if not subs:
                continue
            for sub in list(subs):
                if sub.phase != "both" and sub.phase != event.phase:
                    continue
                req = sub.listener(event)
                if req is not None and suspend is None:
                    suspend = req
        return suspend


class FrameworkAPI:
    """Entry/exit wrapper around framework operations.

    ``call`` is a coroutine: it emits the entry event, runs the (optionally
    blocking) implementation, emits the exit event, and yields any Suspend
    a listener requested — the framework itself never knows a debugger is
    attached.
    """

    def __init__(self, bus: FrameworkEventBus, scheduler) -> None:
        self.bus = bus
        self.scheduler = scheduler

    def call(self, symbol: str, args: Dict[str, Any], impl=None, actor: Optional[str] = None):
        bus = self.bus
        if bus.wants(symbol, actor):
            event = FrameworkEvent("entry", symbol, args, actor, time=self.scheduler.now)
            req = bus.emit(event)
            if req is not None:
                yield req
        else:
            # hook elision fast path: no listener can observe this symbol,
            # so do not materialise the event at all (counters still move)
            bus.count_unobserved(symbol)
        ret = None
        if impl is not None:
            ret = yield from impl
        # re-check at exit: a listener may have subscribed while the
        # implementation ran (e.g. the user armed a breakpoint at a stop)
        if bus.wants(symbol, actor):
            exit_event = FrameworkEvent(
                "exit", symbol, args, actor, retval=ret, time=self.scheduler.now
            )
            req = bus.emit(exit_event)
            if req is not None:
                yield req
        else:
            bus.count_unobserved(symbol)
        return ret

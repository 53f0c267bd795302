"""Elaborated PEDF actors: filters, controllers, modules.

Execution model (paper §IV-B) — per *step*:

1. the controller decides which filters run: ``ACTOR_START(name)``;
2. the WORK method of scheduled filters starts;
3. the controller may wait for execution to begin: ``WAIT_FOR_ACTOR_INIT``;
4. the controller requests end-of-step: ``ACTOR_SYNC(name)``;
5. the controller waits for it: ``WAIT_FOR_ACTOR_SYNC``.

A filter is a simulation process consuming start commands from a private
queue and running one WORK invocation per command; a controller is a
process whose WORK method is invoked once per step by the runtime.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, List, Optional

from ..cminus.interp import CostModel, Interpreter
from ..cminus.values import Raw, Value, default_value
from ..errors import PedfError
from ..sim.channels import Fifo
from ..sim.process import ProcessState, WaitEvent
from .api import (
    SYM_ACTOR_START,
    SYM_ACTOR_SYNC,
    SYM_SET_PRED,
    SYM_STEP_BEGIN,
    SYM_STEP_END,
    SYM_WAIT_INIT,
    SYM_WAIT_SYNC,
    SYM_WORK_ENTER,
    SYM_WORK_EXIT,
)
from .decls import ControllerDecl, FilterDecl
from .envs import ActorEnv, ControllerEnv
from .links import IfaceInst
from .tokens import Token

if TYPE_CHECKING:  # pragma: no cover
    from ..p2012.pe import ExecResource
    from .runtime import PedfRuntime


class ActorState(enum.Enum):
    """Filter lifecycle, as the scheduling monitor reports it
    (paper Contribution #2: "ready to be executed, not scheduled, or have
    already finished the step")."""

    IDLE = "idle"  # not scheduled
    SCHEDULED = "scheduled"  # start issued, WORK not yet begun
    RUNNING = "running"  # inside WORK
    FINISHED = "finished"  # WORK done for the current step


class ActorInst:
    """Base of elaborated filters and controllers."""

    kind = "actor"

    def __init__(self, decl, module: "ModuleInst", runtime: "PedfRuntime", resource: "ExecResource"):
        self.decl = decl
        self.module = module
        self.runtime = runtime
        self.resource = resource
        resource.occupant = self
        self.ifaces: Dict[str, IfaceInst] = {}
        for iface_decl in decl.ifaces.values():
            self.ifaces[iface_decl.name] = IfaceInst(
                self, iface_decl, runtime.api, runtime.next_seq
            )
        self.printed: List[str] = []
        self.state = ActorState.IDLE
        self.state_event = runtime.scheduler.event(f"{self.qualname}.state")
        self.works_begun = 0
        self.works_done = 0
        self.process = None  # sim Process, set at spawn
        # filled by the runtime after interpreters are built
        self.env: Optional[ActorEnv] = None
        self.interp: Optional[Interpreter] = None
        # most recent tokens seen, for framework-independent inspection
        self.last_token_in: Optional[Token] = None
        self.last_token_out: Optional[Token] = None

    @property
    def name(self) -> str:
        return self.decl.name

    @property
    def qualname(self) -> str:
        return f"{self.module.name}.{self.name}"

    @property
    def work_symbol(self) -> str:
        return self.decl.work_symbol

    def note_token_in(self, token: Token) -> None:
        self.last_token_in = token

    def note_token_out(self, token: Token) -> None:
        self.last_token_out = token

    def _set_state(self, state: ActorState) -> None:
        self.state = state
        self.state_event.notify()

    def current_line(self) -> Optional[int]:
        """Source line currently executed (paper §III: details about the
        state of each actor should include the source-code line)."""
        if self.interp and self.interp.frame:
            return self.interp.frame.line
        return None

    @property
    def blocked(self) -> bool:
        """Whether the actor is blocked waiting for data."""
        return self.process is not None and self.process.state == ProcessState.WAITING

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.qualname} {self.state.value}>"


class FilterInst(ActorInst):
    kind = "filter"

    def __init__(self, decl: FilterDecl, module: "ModuleInst", runtime: "PedfRuntime", resource):
        super().__init__(decl, module, runtime, resource)
        self.data_store: Dict[str, Value] = {
            name: Value(ctype, default_value(ctype)) for name, ctype in decl.data.items()
        }
        self.attributes: Dict[str, Raw] = {
            name: value for name, (_ctype, value) in decl.attributes.items()
        }
        self.cmd_queue = Fifo(runtime.scheduler, capacity=0, name=f"{self.qualname}.cmds")
        self.starts_issued = 0
        self.sync_target: Optional[int] = None

    def schedule_start(self) -> None:
        """Called (from controller context) when ACTOR_START targets us."""
        self.starts_issued += 1
        if self.state in (ActorState.IDLE, ActorState.FINISHED):
            self._set_state(ActorState.SCHEDULED)
        self.cmd_queue.force_put("start")

    def request_exit(self) -> None:
        self.cmd_queue.force_put("exit")

    def body(self):
        """The filter's simulation process."""
        api = self.runtime.api
        while True:
            cmd = yield from self.cmd_queue.get()
            if cmd == "exit":
                return
            self.works_begun += 1
            invocation = self.works_begun
            self._set_state(ActorState.RUNNING)
            yield from api.call(
                SYM_WORK_ENTER,
                {"actor": self.qualname, "invocation": invocation},
                actor=self.qualname,
            )
            self.env.begin_invocation()
            yield from self.interp.run_function(self.work_symbol)
            self.works_done += 1
            self._set_state(ActorState.FINISHED)
            yield from api.call(
                SYM_WORK_EXIT,
                {"actor": self.qualname, "invocation": invocation},
                actor=self.qualname,
            )


class ControllerInst(ActorInst):
    kind = "controller"

    def __init__(self, decl: ControllerDecl, module: "ModuleInst", runtime: "PedfRuntime", resource):
        super().__init__(decl, module, runtime, resource)
        self.data_store: Dict[str, Value] = {}
        self.attributes: Dict[str, Raw] = {}
        self.step_no = 0
        self.stop_requested = False
        self.max_steps = decl.max_steps

    def body(self):
        """The controller's simulation process: one WORK call per step."""
        api = self.runtime.api
        while not self.stop_requested:
            if self.max_steps is not None and self.step_no >= self.max_steps:
                break
            self.step_no += 1
            self._set_state(ActorState.RUNNING)
            yield from api.call(
                SYM_STEP_BEGIN,
                {"controller": self.qualname, "step": self.step_no},
                actor=self.qualname,
            )
            self.works_begun += 1
            self.env.begin_invocation()
            yield from self.interp.run_function(self.work_symbol)
            self.works_done += 1
            yield from api.call(
                SYM_STEP_END,
                {"controller": self.qualname, "step": self.step_no},
                actor=self.qualname,
            )
            self._set_state(ActorState.IDLE)
        # module execution over: release the filters so the simulation
        # terminates instead of looking deadlocked
        for filt in self.module.filters.values():
            filt.request_exit()
        self._set_state(ActorState.FINISHED)

    # ----------------------------------------------------------- intrinsics

    def _target(self, name: str) -> FilterInst:
        filt = self.module.filters.get(name)
        if filt is None:
            raise PedfError(f"{self.qualname}: ACTOR_* on unknown filter {name!r}")
        return filt

    def intr_actor_start(self, name: str):
        filt = self._target(name)

        def impl():
            filt.schedule_start()
            return 0
            yield  # pragma: no cover

        return (
            yield from self.runtime.api.call(
                SYM_ACTOR_START,
                {"controller": self.qualname, "actor": filt.qualname},
                impl=impl(),
                actor=self.qualname,
            )
        )

    def intr_actor_sync(self, name: str):
        filt = self._target(name)

        def impl():
            filt.sync_target = filt.starts_issued
            return 0
            yield  # pragma: no cover

        return (
            yield from self.runtime.api.call(
                SYM_ACTOR_SYNC,
                {"controller": self.qualname, "actor": filt.qualname},
                impl=impl(),
                actor=self.qualname,
            )
        )

    def intr_wait_init(self):
        def impl():
            for filt in self.module.filters.values():
                while filt.works_begun < filt.starts_issued:
                    yield WaitEvent(filt.state_event)
            return 0

        return (
            yield from self.runtime.api.call(
                SYM_WAIT_INIT, {"controller": self.qualname}, impl=impl(), actor=self.qualname
            )
        )

    def intr_wait_sync(self):
        def impl():
            for filt in self.module.filters.values():
                if filt.sync_target is None:
                    continue
                while filt.works_done < filt.sync_target:
                    yield WaitEvent(filt.state_event)
            return 0

        return (
            yield from self.runtime.api.call(
                SYM_WAIT_SYNC, {"controller": self.qualname}, impl=impl(), actor=self.qualname
            )
        )

    def intr_set_pred(self, name: str, value: bool):
        def impl():
            self.module.predicates[name] = value
            return 0
            yield  # pragma: no cover

        return (
            yield from self.runtime.api.call(
                SYM_SET_PRED,
                {"module": self.module.name, "name": name, "value": value},
                impl=impl(),
                actor=self.qualname,
            )
        )


class ModuleInst:
    """An elaborated module: controller + filters + predicates."""

    def __init__(self, decl, runtime: "PedfRuntime"):
        self.decl = decl
        self.runtime = runtime
        self.name: str = decl.name
        self.controller: Optional[ControllerInst] = None
        self.filters: Dict[str, FilterInst] = {}
        self.predicates: Dict[str, bool] = dict(decl.predicates)

    def actors(self) -> List[ActorInst]:
        out: List[ActorInst] = []
        if self.controller is not None:
            out.append(self.controller)
        out.extend(self.filters.values())
        return out

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Module {self.name}: {len(self.filters)} filters>"

"""Bridges between interpreted actor code and the PEDF runtime.

``pedf.io`` follows the paper's *structure dataflow* array notation:
within one WORK invocation, ``pedf.io.an_input[n]`` denotes the n-th token
consumed during that invocation (re-reads of already-consumed indices are
served from a local window), and ``pedf.io.an_output[n] = v`` pushes the
n-th produced token.  Pushes are immediate — the consumer may start while
the producer continues, which is the "non-linear execution" the debugger's
``step_both`` addresses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from ..cminus.interp import Environment
from ..cminus.typesys import CType
from ..cminus.values import Raw, coerce, copy_raw
from ..errors import CMinusRuntimeError, PedfError
from .tokens import Token

if TYPE_CHECKING:  # pragma: no cover
    from .actors import ActorInst, ControllerInst


class ActorEnv(Environment):
    """Environment of a filter (and base for controllers)."""

    def __init__(self, actor: "ActorInst"):
        self.actor = actor
        self._consumed: Dict[str, List[Token]] = {}
        self._produced: Dict[str, int] = {}

    def begin_invocation(self) -> None:
        """Reset the per-WORK-invocation io windows."""
        self._consumed = {name: [] for name in self.actor.ifaces}
        self._produced = {name: 0 for name in self.actor.ifaces}

    # ------------------------------------------------------------------ io

    def _iface(self, name: str):
        inst = self.actor.ifaces.get(name)
        if inst is None:
            raise CMinusRuntimeError(f"{self.actor.qualname}: no interface {name!r}")
        return inst

    def io_read(self, iface: str, index: int, ctype: CType):
        inst = self._iface(iface)
        window = self._consumed[iface]
        if index < 0:
            raise CMinusRuntimeError(
                f"{self.actor.qualname}: negative io index {index} on {iface}"
            )
        while len(window) <= index:
            token = yield from inst.pop(len(window))
            window.append(token)
            self.actor.note_token_in(token)
        return copy_raw(window[index].value)

    def io_write(self, iface: str, index: int, value: Raw, ctype: CType):
        inst = self._iface(iface)
        n = self._produced[iface]
        if index != n:
            raise CMinusRuntimeError(
                f"{self.actor.qualname}: out-of-order push on {iface}[{index}] "
                f"(next unwritten index is {n}; tokens cannot be rewritten once sent)"
            )
        token = yield from inst.push(value, n)
        self._produced[iface] = n + 1
        self.actor.note_token_out(token)
        return token

    # ------------------------------------------------------- data/attribute

    def data_get(self, name: str) -> Raw:
        slot = self.actor.data_store.get(name)
        if slot is None:
            raise CMinusRuntimeError(f"{self.actor.qualname}: no private data {name!r}")
        return copy_raw(slot.data)

    def data_set(self, name: str, value: Raw) -> None:
        slot = self.actor.data_store.get(name)
        if slot is None:
            raise CMinusRuntimeError(f"{self.actor.qualname}: no private data {name!r}")
        slot.data = coerce(value, slot.ctype)

    def attr_get(self, name: str) -> Raw:
        if name not in self.actor.attributes:
            raise CMinusRuntimeError(f"{self.actor.qualname}: no attribute {name!r}")
        return copy_raw(self.actor.attributes[name])

    def print_out(self, text: str) -> None:
        self.actor.printed.append(text)
        self.actor.runtime.console.append(f"[{self.actor.qualname}] {text}")


class ControllerEnv(ActorEnv):
    """Adds the scheduling intrinsics (paper §IV-B)."""

    def __init__(self, controller: "ControllerInst"):
        super().__init__(controller)
        self.controller = controller

    def intrinsic(self, name: str, args: Sequence[Raw]):
        ctl = self.controller
        if name == "ACTOR_START":
            return (yield from ctl.intr_actor_start(str(args[0])))
        if name == "ACTOR_SYNC":
            return (yield from ctl.intr_actor_sync(str(args[0])))
        if name == "ACTOR_FIRE":
            # merged START + SYNC (paper: "can be merged into a single
            # ACTOR_FIRE command")
            yield from ctl.intr_actor_start(str(args[0]))
            return (yield from ctl.intr_actor_sync(str(args[0])))
        if name == "WAIT_FOR_ACTOR_INIT":
            return (yield from ctl.intr_wait_init())
        if name == "WAIT_FOR_ACTOR_SYNC":
            return (yield from ctl.intr_wait_sync())
        if name == "STEP_COUNT":
            return ctl.step_no
        if name == "PRED":
            return bool(ctl.module.predicates.get(str(args[0]), False))
        if name == "SET_PRED":
            return (yield from ctl.intr_set_pred(str(args[0]), bool(args[1])))
        if name == "MODULE_STOP":
            ctl.stop_requested = True
            return 0
        raise CMinusRuntimeError(f"unknown intrinsic {name}()")

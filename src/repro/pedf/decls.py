"""Architecture declarations — the output of the MIND compiler.

A :class:`ProgramDecl` is a pure description: modules containing a
controller and filters, typed interfaces, and bindings.  The PEDF runtime
elaborates it onto a platform; the MIND front end (or plain Python code)
produces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cminus.ast import Program as CProgram
from ..cminus.debuginfo import DebugInfo
from ..cminus.typesys import CType, StructType
from ..cminus.values import Raw
from ..errors import PedfError


@dataclass
class IfaceDecl:
    """One dataflow interface of an actor or module."""

    name: str
    direction: str  # "input" | "output"
    ctype: CType

    def __post_init__(self) -> None:
        if self.direction not in ("input", "output"):
            raise PedfError(f"interface {self.name!r}: bad direction {self.direction!r}")


@dataclass
class ActorDeclBase:
    """Shared by filters and controllers."""

    name: str
    source: str  # Filter-C text
    source_name: str = ""  # e.g. "the_source.c"
    ifaces: Dict[str, IfaceDecl] = field(default_factory=dict)
    # filled by pedf.compile:
    cprogram: Optional[CProgram] = None
    debug_info: Optional[DebugInfo] = None
    work_symbol: str = ""
    #: canonical → mangled function names (paper §VI-F)
    symbols: Dict[str, str] = field(default_factory=dict)

    def add_iface(self, name: str, direction: str, ctype: CType) -> IfaceDecl:
        if name in self.ifaces:
            raise PedfError(f"{self.name}: interface {name!r} redeclared")
        decl = IfaceDecl(name, direction, ctype)
        self.ifaces[name] = decl
        return decl

    def inputs(self) -> List[IfaceDecl]:
        return [i for i in self.ifaces.values() if i.direction == "input"]

    def outputs(self) -> List[IfaceDecl]:
        return [i for i in self.ifaces.values() if i.direction == "output"]


@dataclass
class FilterDecl(ActorDeclBase):
    """A PEDF filter: data processing actor, RTL-synthesizable."""

    data: Dict[str, CType] = field(default_factory=dict)
    attributes: Dict[str, Tuple[CType, Raw]] = field(default_factory=dict)
    hw_accel: bool = False  # map onto a hardware accelerator slot

    kind = "filter"

    def add_data(self, name: str, ctype: CType) -> None:
        if name in self.data:
            raise PedfError(f"{self.name}: data {name!r} redeclared")
        self.data[name] = ctype

    def add_attribute(self, name: str, ctype: CType, value: Raw = 0) -> None:
        if name in self.attributes:
            raise PedfError(f"{self.name}: attribute {name!r} redeclared")
        self.attributes[name] = (ctype, value)


@dataclass
class ControllerDecl(ActorDeclBase):
    """A module's controller (exactly one per module)."""

    max_steps: Optional[int] = None  # safety bound; None = until MODULE_STOP

    kind = "controller"


@dataclass(frozen=True)
class EndpointRef:
    """A binding endpoint: ``(actor, iface)`` with ``actor='this'`` meaning
    the enclosing module's external interface."""

    actor: str
    iface: str

    def __str__(self) -> str:
        return f"{self.actor}.{self.iface}"


@dataclass
class BindingDecl:
    src: EndpointRef
    dst: EndpointRef
    capacity: Optional[int] = None  # None = runtime default
    dma: Optional[bool] = None  # force/forbid DMA assist; None = by topology
    line: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"binds {self.src} to {self.dst}"


@dataclass
class ModuleDecl:
    name: str
    controller: Optional[ControllerDecl] = None
    filters: Dict[str, FilterDecl] = field(default_factory=dict)
    ifaces: Dict[str, IfaceDecl] = field(default_factory=dict)
    bindings: List[BindingDecl] = field(default_factory=list)
    predicates: Dict[str, bool] = field(default_factory=dict)
    cluster: Optional[int] = None  # pin the module to a cluster

    def add_filter(self, decl: FilterDecl) -> FilterDecl:
        if decl.name in self.filters or (self.controller and decl.name == self.controller.name):
            raise PedfError(f"module {self.name}: actor {decl.name!r} redeclared")
        self.filters[decl.name] = decl
        return decl

    def set_controller(self, decl: ControllerDecl) -> ControllerDecl:
        if self.controller is not None:
            raise PedfError(f"module {self.name}: controller redeclared")
        self.controller = decl
        return decl

    def add_iface(self, name: str, direction: str, ctype: CType) -> IfaceDecl:
        if name in self.ifaces:
            raise PedfError(f"module {self.name}: interface {name!r} redeclared")
        decl = IfaceDecl(name, direction, ctype)
        self.ifaces[name] = decl
        return decl

    def bind(
        self,
        src_actor: str,
        src_iface: str,
        dst_actor: str,
        dst_iface: str,
        capacity: Optional[int] = None,
        dma: Optional[bool] = None,
    ) -> BindingDecl:
        b = BindingDecl(EndpointRef(src_actor, src_iface), EndpointRef(dst_actor, dst_iface),
                        capacity=capacity, dma=dma)
        self.bindings.append(b)
        return b

    def actor_decl(self, name: str) -> Optional[ActorDeclBase]:
        if self.controller is not None and self.controller.name == name:
            return self.controller
        return self.filters.get(name)

    def actor_names(self) -> List[str]:
        names = list(self.filters)
        if self.controller is not None:
            names.append(self.controller.name)
        return names


@dataclass
class ProgramDecl:
    """A whole PEDF application: modules plus inter-module bindings."""

    name: str
    modules: Dict[str, ModuleDecl] = field(default_factory=dict)
    bindings: List[BindingDecl] = field(default_factory=list)  # (module, iface) endpoints
    structs: Dict[str, StructType] = field(default_factory=dict)

    def add_module(self, module: ModuleDecl) -> ModuleDecl:
        if module.name in self.modules:
            raise PedfError(f"program {self.name}: module {module.name!r} redeclared")
        self.modules[module.name] = module
        return module

    def bind(self, src_module: str, src_iface: str, dst_module: str, dst_iface: str,
             capacity: Optional[int] = None, dma: Optional[bool] = None) -> BindingDecl:
        b = BindingDecl(EndpointRef(src_module, src_iface), EndpointRef(dst_module, dst_iface),
                        capacity=capacity, dma=dma)
        self.bindings.append(b)
        return b

    # ------------------------------------------------------------ validation

    def validate(self) -> None:
        """Static checks on the architecture (before elaboration)."""
        for mod in self.modules.values():
            if mod.controller is None:
                raise PedfError(f"module {mod.name!r} has no controller")
            self._validate_module_bindings(mod)
        for b in self.bindings:
            for end, want_dir in ((b.src, "output"), (b.dst, "input")):
                mod = self.modules.get(end.actor)
                if mod is None:
                    raise PedfError(f"binding {b}: unknown module {end.actor!r}")
                iface = mod.ifaces.get(end.iface)
                if iface is None:
                    raise PedfError(f"binding {b}: module {end.actor!r} has no interface {end.iface!r}")
                if iface.direction != want_dir:
                    raise PedfError(
                        f"binding {b}: {end} is an {iface.direction} interface, expected {want_dir}"
                    )

    def _validate_module_bindings(self, mod: ModuleDecl) -> None:
        bound_inputs: set = set()
        bound_outputs: set = set()
        for b in mod.bindings:
            src_iface = self._resolve_iface(mod, b.src)
            dst_iface = self._resolve_iface(mod, b.dst)
            # direction check: a link flows producer → consumer. A module's
            # *input* interface is a producer seen from inside; 'this'
            # endpoints therefore invert direction.
            want_src = "input" if b.src.actor == "this" else "output"
            want_dst = "output" if b.dst.actor == "this" else "input"
            if src_iface.direction != want_src:
                raise PedfError(f"module {mod.name}: binding {b}: {b.src} is not a data producer")
            if dst_iface.direction != want_dst:
                raise PedfError(f"module {mod.name}: binding {b}: {b.dst} is not a data consumer")
            if src_iface.ctype != dst_iface.ctype:
                raise PedfError(
                    f"module {mod.name}: binding {b}: type mismatch "
                    f"{src_iface.ctype} -> {dst_iface.ctype}"
                )
            skey, dkey = (b.src.actor, b.src.iface), (b.dst.actor, b.dst.iface)
            if skey in bound_outputs:
                raise PedfError(f"module {mod.name}: {b.src} bound more than once")
            if dkey in bound_inputs:
                raise PedfError(f"module {mod.name}: {b.dst} bound more than once")
            bound_outputs.add(skey)
            bound_inputs.add(dkey)

    def _resolve_iface(self, mod: ModuleDecl, ref: EndpointRef) -> IfaceDecl:
        if ref.actor == "this":
            iface = mod.ifaces.get(ref.iface)
            if iface is None:
                raise PedfError(f"module {mod.name}: no external interface {ref.iface!r}")
            return iface
        actor = mod.actor_decl(ref.actor)
        if actor is None:
            raise PedfError(f"module {mod.name}: unknown actor {ref.actor!r} in binding")
        iface = actor.ifaces.get(ref.iface)
        if iface is None:
            raise PedfError(f"module {mod.name}: actor {ref.actor!r} has no interface {ref.iface!r}")
        return iface
